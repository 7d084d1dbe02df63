#!/usr/bin/env bash
# check.sh — the repo's CI gate: formatting, vet, full compilation
# (including examples/ and the cmd/ programs without tests, which would
# otherwise only break at release time), one run of each example that needs
# no server, the full test suite under the race detector, a few seconds of
# each fuzz target, a one-iteration
# benchmark smoke run so benchmark-only regressions (compile errors, panics)
# surface here rather than at measurement time, the nested bench/
# module's own vet and tests and its oracle-checked smoke over all four
# workloads, the coverage floor, and the psiserve binary driven end to end
# (serve, snapshot, churn). It gates behaviour, not speed: the former floors
# on snapshot load vs build and on mutation vs rebuild were ratios of two
# wall-clock timings over 24-40 graphs and are dropped; bench/ reports both
# sides of each on every run. Run
# from the repository root (or anywhere; the script cds to its own repo).
# Fails fast with a non-zero exit on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== examples (quickstart, stragglers, socialnet, proteins) =="
# The examples are the only programs written against nothing but the public
# Engine API, and they have no tests: one that compiles but fails at run time
# (an option the engine rejects, an index kind nobody registered) is caught
# here. About three seconds together; examples/serve needs a port and is what
# the serve smoke below covers with the real binary.
for ex in quickstart stragglers socialnet proteins; do
    go run "./examples/$ex" > /dev/null
done

echo "== go vet =="
go vet ./...

echo "== go test -race -shuffle=on =="
# -shuffle=on randomizes test (and subtest-parent) execution order so
# order-dependent tests fail here instead of flaking later; the shuffle
# seed is printed on failure for reproduction.
go test -race -shuffle=on ./...

echo "== leakcheck under the race detector (20 runs) =="
# The goroutine-leak check every no-leak test leans on, run repeatedly where
# scheduling varies most: it tells goroutines apart by ID, so one from the
# snapshot that exits meanwhile cannot hide a new one, and it must report a
# leak every time, not most times.
go test ./internal/leakcheck -race -count=20 -run TestCheck

echo "== fuzz (FuzzPostings, 5s) =="
# Random ascending posting lists and seek sequences against a slice oracle:
# the packed lists and their one cursor sit under every filter, every Grapes
# verification and every mutable insert. A failing input is written under
# internal/index/testdata/fuzz and then fails the plain test run as well.
go test -run='^$' -fuzz=FuzzPostings -fuzztime=5s ./internal/index

echo "== fuzz (FuzzPathDirectory, 5s) =="
# A small decoded dataset as a grid of one to four flat shards sharing one
# sequence directory, each against an index of its own over the same graphs:
# the same export, statistics and lookups, present and absent sequences
# alike, before and after an insert that may set bits or write a superset
# directory. This is where a wrong rank, a union that misses a sequence or a
# bitmap rebound to the wrong positions shows. Each row, merged by
# index.Sharded under a fuzzed alive mask, must also filter a fuzzed query to
# what an index over the live graphs alone does, in full and stopped at every
# candidate: a merge that loses ascending order, keeps a tombstone or emits
# past a stop shows here.
go test -run='^$' -fuzz=FuzzPathDirectory -fuzztime=5s ./internal/index

echo "== fuzz (FuzzExtractFeatures, 5s) =="
# Two small graphs over labels of every width, maxLen 1..5, with and without
# locations, against the map-based oracle extractor: the path DFS that every
# index build, insert and compaction is made of works a label run at a time
# and skips mirror spellings at full length, and this is where a run that is
# wrongly skipped, or counted with a neighbour already on the path, shows.
# The second graph is extracted after the first by the same extractor, on the
# trie the first grew, so a count or a location set the first left behind
# shows in the second's features.
go test -run='^$' -fuzz=FuzzExtractFeatures -fuzztime=5s ./internal/ftv

echo "== fuzz (FuzzLocSets, 5s) =="
# Location sets of fuzzed membership over graphs of 0 to 299 vertices, each
# built from a bitset row and from a vertex-ID list, then copied behind other
# sets, against a sorted-list oracle: Grapes verifies through these sets and
# the snapshot writes them out, and this is where a set stored in the wrong
# form, a member lost at a word boundary or a reference shifted wrongly shows.
go test -run='^$' -fuzz=FuzzLocSets -fuzztime=5s ./internal/ftv

echo "== fuzz (FuzzSPathCandidates, 5s) =="
# A stored graph of up to 32 vertices and a query of up to 8 over alphabets of
# one to eight labels of every width, radius 1..5, against the filter's
# definition on the map-based oracle signatures, with every stored and query
# row held to its form: sPath's rows are bytes, width one-byte counts when a
# row's k labels have 3k ≥ width and k (rank high, rank low, count) triples
# otherwise, in the stored graph's rank space, and this is where a row on the
# wrong side of that rule, a query label the stored graph lacks, or a
# containment that reads one form as the other shows.
go test -run='^$' -fuzz=FuzzSPathCandidates -fuzztime=5s ./internal/spath

echo "== fuzz (FuzzSnapshotSections, 5s) =="
# One section payload of a saved snapshot (static at K=1 and K=2, mutable
# churned to a tombstone) edited by one xor or truncation and re-framed with
# fresh checksums, so the edit reaches the decoders, index.Restore and
# live.Restore: the load path every dataset engine shares, static or mutable.
# It guards that a file from disk never panics the loader and that a store it
# yields answers a subset of brute force over its own graphs.
go test -run='^$' -fuzz=FuzzSnapshotSections -fuzztime=5s ./internal/snapshot

echo "== fuzz (FuzzReadDataset, 5s) =="
# Arbitrary text through the dataset parser, the code that reads untrusted
# POST /query and POST /graphs bodies: it must never panic, and what it
# accepts must write back out as text that parses to equal graphs. Seeded with
# a generated dataset and with labels on both sides of the 32-bit bound.
go test -run='^$' -fuzz=FuzzReadDataset -fuzztime=5s ./internal/graph

echo "== fuzz (FuzzFromCSR, 5s) =="
# Arbitrary label, offset, neighbour and edge-label arrays through the graph
# decoder every snapshot load runs: it must never panic, and an accepted
# graph must hand its arrays back and equal what a Builder makes of its edges.
go test -run='^$' -fuzz=FuzzFromCSR -fuzztime=5s ./internal/graph

echo "== fuzz (FuzzRankedSearch, 5s) =="
# Fuzzed stored graphs, queries and permutations through VF2, QuickSI,
# GraphQL and sPath at limits 0 and 1000: a search of the query under the
# permutation as a vertex ranking emits the embeddings of a plain search of
# the permuted query, mapped through the permutation, in the same order and
# after the same step count. Every race attempt under a rewriting is such a
# search, and this is where a plan renumbered wrongly onto the caller's query
# shows.
go test -run='^$' -fuzz=FuzzRankedSearch -fuzztime=5s ./internal/match

echo "== fuzz (FuzzMatchers, 5s) =="
# Fuzzed stored graphs of up to 24 vertices and queries of up to 7, over one
# to four vertex labels and one to three edge labels, disconnected and with
# isolated vertices, through VF2, QuickSI, GraphQL and sPath against the
# reference matcher: the same embedding set at an unbounded limit, the same
# containment at limit 0, and VF2 within a fuzzed vertex set the same answer
# as the reference on the subgraph it induces. The four share one
# backtracking join, and this is where a plan that skips a candidate or an
# edge check shows.
go test -run='^$' -fuzz=FuzzMatchers -fuzztime=5s ./internal/match

echo "== bench smoke (1 iteration) =="
# Every root benchmark once, BenchmarkExtractFeatures,
# BenchmarkBuildPortfolio and BenchmarkGrapesVerify (the index-build path and
# Grapes' verification over the repo benchmark's two dataset shapes and one
# large sparse many-label graph, which between them store location sets in
# both forms) and BenchmarkMatcherBuild and BenchmarkMatch*Paper (the
# matchers' indexing phase and query path at the nfv_race scale) and
# BenchmarkShardedFilterStream (the sharded filter's merge at K = 1, 2 and 4
# on ftv_selective's and serve_mixed's dataset shapes) included,
# and internal/core's BenchmarkRaceInstances (the fixed cost of one
# per-candidate rewriting race, the number that keeps firstDone its own loop).
go test -run='^$' -bench=. -benchtime=1x . ./internal/core

echo "== bench module (vet + tests against this root) =="
# bench/ is a nested module (replace ../), so ./... above never descends
# into it: a root API change that breaks the benchmark's compile surface
# would otherwise be found only when the benchmark is next run.
(cd bench && go vet ./... && go test ./...)

echo "== bench smoke (four workloads, every answer oracle-checked) =="
# The repo's benchmark at a scale that runs in about a second: the NFV race,
# the three-index race, the sharded server and the mutable server under churn,
# each answer compared with the sequential oracle, the cold start from a
# snapshot and the churned engine against a from-scratch rebuild included.
# The run exits non-zero on a wrong answer; a failed operation is caught here
# from the per-workload summary lines. Its files land in the git-ignored
# bench/out/. The timings it prints (coldstart_s, snapshot.load_s, setup_s,
# live.add_ms, live.compaction_ms) are reported, not gated.
smoke_out=$(bash bench/run.sh -smoke)
echo "$smoke_out" | grep '^== '
clean=$(echo "$smoke_out" | grep -c '^== .* parity=true attempted=[0-9]* failed=0 ' || true)
[ "$clean" -eq 4 ] || {
    echo "bench smoke: want parity=true and failed=0 on all four workloads" >&2
    exit 1
}

echo "== coverage gate (internal/core, internal/index, internal/rewrite, internal/predict, internal/metrics, internal/live, internal/snapshot, internal/spath, internal/gql, internal/match, internal/grapes, internal/ftv, internal/graph, internal/vf2, internal/quicksi, internal/server, internal/exec) =="
# Per-package coverage for the packages this repo's correctness arguments
# lean on hardest (the one race/stream pipeline every query runs through,
# the filtering/sharding contract, the rewritings' rankings, the learned
# planning policy's evidence rules, the operational counters, the
# epoch-versioned mutation store, the persistent snapshot format, and the
# default NFV portfolio's two matchers with the contract and candidate sets
# they share, and the feature extraction with its location sets and the one
# index kind that verifies through them, the graph type with the parser
# untrusted request bodies go through, the other two matchers, the HTTP
# server, and the execution pool every fan-out and race runs on); regressing
# below the floor fails the gate.
cov_out=$(go test -cover ./internal/core ./internal/index ./internal/rewrite ./internal/predict ./internal/metrics ./internal/live ./internal/snapshot ./internal/spath ./internal/gql ./internal/match ./internal/grapes ./internal/ftv ./internal/graph ./internal/vf2 ./internal/quicksi ./internal/server ./internal/exec)
echo "$cov_out"
echo "$cov_out" | awk '
    /coverage:/ {
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) {
            pct = $i; gsub(/%/, "", pct)
            if (pct + 0 < 85) { print "coverage below 85% floor: " $0; bad = 1 }
        }
    }
    END { exit bad }
' || exit 1

echo "== serve smoke =="
# End-to-end over the real binary: start psiserve on a random port over a
# tiny generated dataset, issue one streamed and one cached query with
# curl, then SIGTERM and assert a graceful zero-exit drain. Catches wiring
# breakage (flags, listener, portfile, signal handling) that the
# internal/server unit tests, which drive the handler in-process, cannot.
tmpdir=$(mktemp -d)
serve_pid=""
mserve_pid=""
sserve_pid=""
# `|| true` on each clause: under set -e a failing command at the end of the
# trap's AND-list would override the script's real exit status.
trap '{ [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true; } ; { [ -n "$mserve_pid" ] && kill "$mserve_pid" 2>/dev/null || true; } ; { [ -n "$sserve_pid" ] && kill "$sserve_pid" 2>/dev/null || true; } ; rm -rf "$tmpdir" || true' EXIT
go build -o "$tmpdir/psiserve" ./cmd/psiserve
go run ./cmd/psigen -dataset ppi -scale tiny -seed 1 \
    -out "$tmpdir/ds.txt" -queries 1 -sizes 4 -qout "$tmpdir/q.txt"
"$tmpdir/psiserve" -data "$tmpdir/ds.txt" -index ftv -snapshot "$tmpdir/cs.psisnap" \
    -addr 127.0.0.1:0 -portfile "$tmpdir/port" 2> "$tmpdir/serve.log" &
serve_pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/port" ] && break; sleep 0.1; done
port=$(cat "$tmpdir/port")
streamed=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$port/query?stream=1")
echo "$streamed" | grep -q '"done":true' || {
    echo "serve smoke: streamed query missing summary line: $streamed" >&2
    exit 1
}
cached=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$port/query")
echo "$cached" | grep -q '"cached":true' || {
    echo "serve smoke: repeat query not served from cache: $cached" >&2
    exit 1
}
curl -sf "http://127.0.0.1:$port/metrics" | grep -q 'psi_server_admitted_total 2' || {
    echo "serve smoke: metrics did not count both queries" >&2
    exit 1
}
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve smoke: psiserve did not exit 0 on SIGTERM" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
grep -q "drained cleanly" "$tmpdir/serve.log" || {
    echo "serve smoke: no clean drain recorded" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
}
grep -q "snapshot saved" "$tmpdir/serve.log" && [ -s "$tmpdir/cs.psisnap" ] || {
    echo "serve smoke: fresh build with -snapshot did not save one" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
}

echo "== snapshot smoke (corrupt, cold start) =="
# On the snapshot the serve smoke's server saved after its fresh build, the
# way an operator makes one. First the fail-closed guarantee: flip one byte in
# the middle of the file and the load must be refused with a checksum error,
# never served from a corrupt state. Then a clean cold start through the real
# binary: psiserve -snapshot with no -data/-gen must come up from the file
# alone and answer a query. (Answer parity of a cold start is
# TestEngineSnapshotRoundTripStatic/Mutable and the bench smoke above.)
cp "$tmpdir/cs.psisnap" "$tmpdir/corrupt.psisnap"
size=$(wc -c < "$tmpdir/corrupt.psisnap")
printf '\xff' | dd of="$tmpdir/corrupt.psisnap" bs=1 seek=$((size / 2)) conv=notrunc 2> /dev/null
if corrupt_log=$("$tmpdir/psiserve" -snapshot "$tmpdir/corrupt.psisnap" -addr 127.0.0.1:0 2>&1); then
    echo "snapshot smoke: corrupt snapshot was accepted" >&2
    exit 1
fi
echo "$corrupt_log" | grep -qi "checksum" || {
    echo "snapshot smoke: corrupt-load error does not mention the checksum: $corrupt_log" >&2
    exit 1
}
"$tmpdir/psiserve" -snapshot "$tmpdir/cs.psisnap" \
    -addr 127.0.0.1:0 -portfile "$tmpdir/sport" 2> "$tmpdir/sserve.log" &
sserve_pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/sport" ] && break; sleep 0.1; done
sport=$(cat "$tmpdir/sport")
snap_ans=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$sport/query?cache=0")
echo "$snap_ans" | grep -q '"graph_ids"' || {
    echo "snapshot smoke: cold-started server gave no answer: $snap_ans" >&2
    cat "$tmpdir/sserve.log" >&2
    exit 1
}
kill -TERM "$sserve_pid"
if ! wait "$sserve_pid"; then
    echo "snapshot smoke: cold-started psiserve did not exit 0 on SIGTERM" >&2
    cat "$tmpdir/sserve.log" >&2
    exit 1
fi
sserve_pid=""

echo "== churn smoke (mutable engine, race-enabled binary) =="
# Mutable serving end to end over a race-enabled psiserve (parity of a
# churned engine with a from-scratch rebuild is TestMutableEngineParityFuzz
# and the bench smoke above): start with -mutable (the engine builds in the
# background), poll /healthz until it flips from "building" to "ok",
# ingest the query graph itself, assert the very next answer grows, delete
# it again, and assert the answer returns byte-identically to the
# pre-ingest baseline before a clean SIGTERM drain.
go build -race -o "$tmpdir/psiserve_race" ./cmd/psiserve
"$tmpdir/psiserve_race" -data "$tmpdir/ds.txt" -index ftv -mutable -shards 2 \
    -addr 127.0.0.1:0 -portfile "$tmpdir/mport" 2> "$tmpdir/mserve.log" &
mserve_pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/mport" ] && break; sleep 0.1; done
mport=$(cat "$tmpdir/mport")
for _ in $(seq 300); do
    curl -sf "http://127.0.0.1:$mport/healthz" > /dev/null && break
    sleep 0.2
done
curl -sf "http://127.0.0.1:$mport/healthz" | grep -q '"status":"ok"' || {
    echo "churn smoke: server never became ready" >&2
    cat "$tmpdir/mserve.log" >&2
    exit 1
}
ids() { sed -n 's/.*"graph_ids":\[\([^]]*\)\].*/\1/p'; }
base_ids=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$mport/query?cache=0" | ids)
ingest=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" "http://127.0.0.1:$mport/graphs")
handle=$(echo "$ingest" | sed -n 's/.*"handles":\[\([0-9]*\)\].*/\1/p')
[ -n "$handle" ] || {
    echo "churn smoke: ingest returned no handle: $ingest" >&2
    exit 1
}
grown_ids=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$mport/query?cache=0" | ids)
[ "$grown_ids" != "$base_ids" ] || {
    echo "churn smoke: ingested graph invisible to the next query ($grown_ids)" >&2
    exit 1
}
curl -sf -X DELETE "http://127.0.0.1:$mport/graphs/$handle" > /dev/null
after_ids=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$mport/query?cache=0" | ids)
[ "$after_ids" = "$base_ids" ] || {
    echo "churn smoke: answer after delete ($after_ids) != pre-ingest baseline ($base_ids)" >&2
    exit 1
}
curl -sf "http://127.0.0.1:$mport/metrics" | grep -q 'psi_engine_graphs_added_total 1' || {
    echo "churn smoke: metrics did not count the ingest" >&2
    exit 1
}
kill -TERM "$mserve_pid"
if ! wait "$mserve_pid"; then
    echo "churn smoke: psiserve did not exit 0 on SIGTERM" >&2
    cat "$tmpdir/mserve.log" >&2
    exit 1
fi
mserve_pid=""
grep -q "drained cleanly" "$tmpdir/mserve.log" || {
    echo "churn smoke: no clean drain recorded" >&2
    cat "$tmpdir/mserve.log" >&2
    exit 1
}

echo "All checks passed."
