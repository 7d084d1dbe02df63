package index

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// TestPathEntryLayout pins what a feature costs the flat index beyond its
// bit in the presence bitmap and its postings: one entry of 8 bytes with no
// pointer in it (the labels live in the shared directory).
func TestPathEntryLayout(t *testing.T) {
	if size := unsafe.Sizeof(pathEntry{}); size > 8 {
		t.Errorf("pathEntry is %d bytes, want at most 8", size)
	}
	entry := reflect.TypeFor[pathEntry]()
	for i := range entry.NumField() {
		if k := entry.Field(i).Type.Kind(); k != reflect.Uint32 && k != reflect.Int32 {
			t.Errorf("pathEntry.%s is a %s, want a 32-bit integer", entry.Field(i).Name, k)
		}
	}
}

// TestSlabOffsetPanics: an offset that would wrap panics, naming the index
// and what to do about it.
func TestSlabOffsetPanics(t *testing.T) {
	if got := slabOffset(1<<32 - 1); got != 1<<32-1 {
		t.Errorf("slabOffset(2^32-1) = %d", got)
	}
	defer func() {
		want := fmt.Sprintf("index: the flat path index (ftv) holds %d labels or posting bytes, past the 2^32 an offset can address; shard the dataset", 1<<32)
		if msg := fmt.Sprint(recover()); msg != want {
			t.Errorf("slabOffset(2^32) recovered %q", msg)
		}
	}()
	slabOffset(1 << 32)
}
