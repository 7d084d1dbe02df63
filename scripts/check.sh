#!/usr/bin/env bash
# check.sh — the repo's CI gate: formatting, vet, full compilation
# (including the cmd/ programs without tests, which would otherwise only
# break at release time) followed by a report line of Go line counts, the
# Example functions at GOMAXPROCS 1, 2 and 4 (their
# checked output must not depend on the core count), the full test suite
# under the race detector, a few seconds of
# each fuzz target, a one-iteration
# benchmark smoke run so benchmark-only regressions (compile errors, panics)
# surface here rather than at measurement time, the nested bench/
# module's own vet and tests and its oracle-checked smoke over all four
# workloads, one run of the paper replay (psibench), the coverage floor, the
# mutant stage (every mutant of scripts/mutants.txt must be killed), the
# psiserve binary driven end to end (serve, snapshot, churn) and psiquery's
# -mode over a dataset. It gates behaviour, not speed: the former floors
# on snapshot load vs build and on mutation vs rebuild were ratios of two
# wall-clock timings over 24-40 graphs and are dropped; bench/ reports both
# sides of each on every run. Run
# from the repository root (or anywhere; the script cds to its own repo).
# Fails fast with a non-zero exit on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage NAME ends the running stage, printing its wall seconds, and starts
# NAME; a stage that spends minutes on a duplicate shows on every run.
stage_name="" stage_start=$SECONDS
stage() {
    if [ -n "$stage_name" ]; then echo "-- $stage_name: $((SECONDS - stage_start)) s"; fi
    stage_name=$1 stage_start=$SECONDS
    if [ -n "$1" ]; then echo "== $1 =="; fi
}

stage "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

stage "go build"
go build ./...
# The size gauge, a report and not a gate: lines of the Go files git tracks
# outside bench/, product code and tests, with the internal/difftest test
# generator apart from the product.
go_files=$(git ls-files -- '*.go' ':(exclude)bench')
go_lines() { grep -E "$1" <<<"$go_files" | grep -vE "$2" | xargs cat | wc -l; }
echo "go lines outside bench/: product $(go_lines . '_test[.]go$|^internal/difftest/'), internal/difftest $(go_lines '^internal/difftest/' '_test[.]go$'), tests $(go_lines '_test[.]go$' '^$')"

stage "examples at GOMAXPROCS 1, 2, 4"
# The Example functions are the executed usage documentation, and each
# output block states an answer equality that must hold on any scheduler.
# GOMAXPROCS, not -cpu: testing.M.Run runs examples outside its -cpu loop.
for p in 1 2 4; do
    GOMAXPROCS=$p go test -count=1 -run '^Example' . ./internal/server
done

stage "go vet"
go vet ./...

stage "go test -race -shuffle=on"
# -shuffle=on randomizes test (and subtest-parent) execution order so
# order-dependent tests fail here instead of flaking later; the shuffle
# seed is printed on failure for reproduction.
go test -race -shuffle=on ./...

stage "leakcheck under the race detector (20 runs)"
# The goroutine-leak check every no-leak test leans on, run repeatedly where
# scheduling varies most: it tells goroutines apart by ID, so one from the
# snapshot that exits meanwhile cannot hide a new one, and it must report a
# leak every time, not most times.
go test ./internal/leakcheck -race -count=20 -run TestCheck

stage "fuzz (FuzzPostings, 5s)"
# Random ascending posting lists and seek sequences against a slice oracle:
# the packed lists and their one cursor sit under every filter, every Grapes
# verification and every mutable insert. A posting is one head varint,
# gap<<4 | min(count-1, 15), and only a count past 15 escapes (nibble 15) to
# a second varint, count-16; the lists are also read back as a table's views,
# whose base for a further posting comes off the last block. The body maps a
# byte to a small value, to a multiple of a large power of two, or to a
# varint width's edge minus 1 to plus 2 (gaps 2^10-1 and 2^10, where the head
# grows from two bytes to three, 2^17-1, 2^24; counts at the escape's second
# byte and either side of 2^31), and the seeds start at those edges. A
# failing input is written under internal/index/testdata/fuzz and then fails
# the plain test run as well.
go test -run='^$' -fuzz=FuzzPostings -fuzztime=5s ./internal/index

stage "fuzz (FuzzPathDirectory, 5s)"
# A small decoded dataset as one to four tables of each index name sharing
# one sequence directory, each against a table of its own over the same graphs:
# the same export, statistics and lookups, present and absent sequences
# alike, before and after an insert that may set bits or write a superset
# directory. This is where a wrong rank, a union that misses a sequence or a
# bitmap rebound to the wrong positions shows. The tables, merged by
# index.Sharded under a fuzzed alive mask, must also filter a fuzzed query to
# what an index over the live graphs alone does, in full and stopped at every
# candidate: a merge that loses ascending order, keeps a tombstone or emits
# past a stop shows here.
go test -run='^$' -fuzz=FuzzPathDirectory -fuzztime=5s ./internal/index

stage "fuzz (FuzzExtractFeatures, 5s)"
# Two small graphs over labels of every width, maxLen 1..5, with and without
# locations, against the map-based oracle extractor: the path DFS that every
# index build, insert and compaction is made of works a label run at a time,
# counts its last two levels in aggregate from per-run label sums less the
# extensions that revisit the path, and takes a full-length feature's
# locations from the prefixes met at both of its ends or, over short label
# runs, by stepping through every level (the first graph is checked both
# ways); this is where a subtraction missed (the seeds include dense two-label graphs, whose
# triangles and 4-cycles close on the path), a run counted with a neighbour
# already on the path, or a vertex a location set lacks shows.
# The second graph is extracted after the first by the same extractor, on the
# trie the first grew, so a count or a location set the first left behind
# shows in the second's features.
go test -run='^$' -fuzz=FuzzExtractFeatures -fuzztime=5s ./internal/ftv

stage "fuzz (FuzzLocSets, 5s)"
# Location sets of fuzzed membership over graphs of 0 to 299 vertices, each
# built from a bitset row and from a vertex-ID list, then copied behind other
# sets, against a sorted-list oracle: Grapes verifies through these sets and
# the snapshot writes them out, and this is where a set stored in the wrong
# form, a member lost at a word boundary or a reference shifted wrongly shows.
go test -run='^$' -fuzz=FuzzLocSets -fuzztime=5s ./internal/ftv

stage "fuzz (FuzzSPathCandidates, 5s)"
# A stored graph of up to 32 vertices and a query of up to 8 over alphabets of
# one to eight labels of every width, radius 1..5, against the filter's
# definition on the map-based oracle signatures, with every stored and query
# row held to its form: sPath's rows are bytes, width one-byte counts when a
# row's k labels have 3k ≥ width and k (rank high, rank low, count) triples
# otherwise, in the stored graph's rank space, and this is where a row on the
# wrong side of that rule, a query label the stored graph lacks, or a
# containment that reads one form as the other shows.
go test -run='^$' -fuzz=FuzzSPathCandidates -fuzztime=5s ./internal/spath

stage "fuzz (FuzzSnapshotSections, 5s)"
# One section payload of a saved snapshot (static at K=1 and K=2, mutable
# churned to a tombstone) edited by one xor or truncation and re-framed with
# fresh checksums, so the edit reaches the decoders, index.Restore and
# live.Restore: the load path every dataset engine shares, static or mutable.
# It guards that a file from disk never panics the loader and that a store it
# yields answers a subset of brute force over its own graphs.
go test -run='^$' -fuzz=FuzzSnapshotSections -fuzztime=5s ./internal/snapshot

stage "fuzz (FuzzReadDataset, 5s)"
# Arbitrary text through the dataset parser, the code that reads untrusted
# POST /query and POST /graphs bodies: it must never panic, and what it
# accepts must write back out as text that parses to equal graphs. Seeded with
# a generated dataset and with labels on both sides of the 32-bit bound.
go test -run='^$' -fuzz=FuzzReadDataset -fuzztime=5s ./internal/graph

stage "fuzz (FuzzFromCSR, 5s)"
# Arbitrary label, offset, neighbour and edge-label arrays through the graph
# decoder every snapshot load runs: it must never panic, and an accepted
# graph must hand its arrays back and equal what a Builder makes of its edges.
go test -run='^$' -fuzz=FuzzFromCSR -fuzztime=5s ./internal/graph

stage "fuzz (FuzzRankedSearch, 5s)"
# Fuzzed stored graphs, queries and permutations through VF2, QuickSI,
# GraphQL and sPath at limits 0 and 1000: a search of the query under the
# permutation as a vertex ranking emits the embeddings of a plain search of
# the permuted query, mapped through the permutation, in the same order and
# after the same step count. Every race attempt under a rewriting is such a
# search, and this is where a plan renumbered wrongly onto the caller's query
# shows.
go test -run='^$' -fuzz=FuzzRankedSearch -fuzztime=5s ./internal/match

stage "fuzz (FuzzMatchers, 5s)"
# Fuzzed stored graphs of up to 24 vertices and queries of up to 7, over one
# to four vertex labels and one to three edge labels, disconnected and with
# isolated vertices, through VF2, QuickSI, GraphQL and sPath against the
# reference matcher: the same embedding set at an unbounded limit, the same
# containment at limit 0, and VF2 within a fuzzed vertex set the same answer
# as the reference on the subgraph it induces. The four share one
# backtracking join, and this is where a plan that skips a candidate or an
# edge check shows.
go test -run='^$' -fuzz=FuzzMatchers -fuzztime=5s ./internal/match

stage "fuzz (FuzzRewriteRoundTrip, 5s)"
# A fuzzed small connected stored graph, a query workload.Extract grows in it
# from a fuzzed seed, a fuzzed frequency map and rewriting seed, through every
# rewriting: the ranked search must yield exactly the unranked search's
# embeddings, and so must the rewritten copy's search translated back. Every
# race attempt under a rewriting rests on this identity, and this is where a
# rank that is no permutation or a comparator that breaks on an unseen label
# shows. Extraction is deterministic, so a failing input reproduces.
go test -run='^$' -fuzz=FuzzRewriteRoundTrip -fuzztime=5s ./internal/rewrite

stage "bench smoke (1 iteration)"
# Every micro-benchmark of the root package and internal/core once, so a
# benchmark-only regression (a compile error, a panic) surfaces here rather
# than at measurement time, in about 20 s: rewriting cost, each matcher's
# query path and indexing phase (BenchmarkMatch*, BenchmarkMatcherBuild, at
# Tiny and at the nfv_race scale), the sequential oracle against the pooled
# pipeline (BenchmarkAnswerSequential, BenchmarkAnswerWorkers), the engine's
# set-up, decision, first result and enumeration (BenchmarkEngine*), each
# table kind's build and the verifier race against Grapes alone
# (BenchmarkIndexBuild*, BenchmarkIndexAnswer), the index-build path and
# Grapes' verification over the repo benchmark's dataset shapes
# (BenchmarkExtractFeatures, BenchmarkBuildPortfolio, BenchmarkGrapesVerify),
# the sharded filter's merge at K = 1, 2 and 4 (BenchmarkShardedFilterStream),
# and internal/core's BenchmarkRaceInstances (the fixed cost of one
# per-candidate rewriting race, the number that keeps firstDone its own
# loop). The paper replay is not among them: psibench's smoke below and
# internal/harness's TestAllExperimentsRun run it.
go test -run='^$' -bench=. -benchtime=1x . ./internal/core

stage "bench module (vet + tests against this root)"
# bench/ is a nested module (replace ../), so ./... above never descends
# into it: a root API change that breaks the benchmark's compile surface
# would otherwise be found only when the benchmark is next run.
(cd bench && go vet ./... && go test ./...)

stage "bench smoke (four workloads, every answer oracle-checked)"
# The repo's benchmark at a scale that runs in about a second: the NFV race,
# the three names' verifiers raced per candidate over one table, the sharded
# server and the mutable server under churn,
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

stage "psibench smoke (the paper replay: fig1, fig12, table10)"
# The paper replay at its smallest, about half a second: it must run and name
# what it reproduces — GGSX and Grapes/4 among fig1's and fig12's FTV
# configurations, all verifiers over one table per dataset, and table10's Ψ
# version of Grapes/4. It measures nothing any gate reads.
replay=$(go run ./cmd/psibench -scale tiny -exp fig1,fig12,table10 -queries 2 -cap 50ms)
for want in 'GGSX' 'Grapes/4' 'Ψ(Grapes/4: Or/all)'; do
    echo "$replay" | grep -qF "$want" || {
        echo "psibench smoke: the replay does not print $want:" >&2
        echo "$replay" >&2
        exit 1
    }
done

stage "coverage gate (every package outside cmd/)"
# Per-package statement coverage of every package but the cmd/ programs,
# which the smokes below drive as binaries; regressing below the floor fails
# the gate.
cov_out=$(go test -cover $(go list ./... | grep -v /cmd/))
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

stage "mutants (scripts/mutants.txt)"
# The gauge of the net above: each mutant is one source line replaced by a
# defect this repo has had or guards against, applied alone to a copy of the
# tree, and the tests it names must fail. A survivor, a line no longer found
# exactly once or a mutant that no longer compiles fails the stage.
scripts/mutants.sh

stage "serve smoke"
# End-to-end over the real binary: start psiserve on a random port over a
# tiny generated dataset, issue one streamed and one cached query with
# curl, then SIGTERM and assert a graceful zero-exit drain. Catches wiring
# breakage (flags, listener, portfile, signal handling) that the
# internal/server unit tests, which drive the handler in-process, cannot.
# -mode reaches a dataset engine, which reports its launch policy as /stats'
# one "mode" field, with no separate index policy.
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
"$tmpdir/psiserve" -data "$tmpdir/ds.txt" -index ftv -mode single -snapshot "$tmpdir/cs.psisnap" \
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
stats=$(curl -sf "http://127.0.0.1:$port/stats")
if ! echo "$stats" | grep -q '"mode":"single"' || echo "$stats" | grep -q 'index_policy'; then
    echo "serve smoke: /stats does not report -mode single as its one mode: $stats" >&2
    exit 1
fi
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

stage "psiquery smoke (-mode on a dataset)"
# psiquery over the serve smoke's dataset and query, the CLI's only run here:
# a dataset engine reads its launch policy from the index policy, so -mode
# single must reach it and leave the first -index name's verifier answering
# every query alone, as a "fixed" launch, with the graph IDs -mode race finds
# as a "race" launch.
go build -o "$tmpdir/psiquery" ./cmd/psiquery
ids() { sed -n 's/.*"graph_ids":\[\([^]]*\)\].*/\1/p'; }
single=$("$tmpdir/psiquery" -data "$tmpdir/ds.txt" -queries "$tmpdir/q.txt" -index ftv,grapes -mode single -json)
raced=$("$tmpdir/psiquery" -data "$tmpdir/ds.txt" -queries "$tmpdir/q.txt" -index ftv,grapes -mode race -json)
if [ -z "$single" ] || echo "$single" | grep -qv '"kind":"fixed".*"winner":"FTV"'; then
    echo "psiquery smoke: -mode single did not launch the FTV verifier alone: $single" >&2
    exit 1
fi
if [ -z "$raced" ] || echo "$raced" | grep -qv '"kind":"race"'; then
    echo "psiquery smoke: -mode race did not launch a race: $raced" >&2
    exit 1
fi
[ "$(echo "$single" | ids)" = "$(echo "$raced" | ids)" ] || {
    echo "psiquery smoke: -mode single answered $single, -mode race $raced" >&2
    exit 1
}
# Every flag value is checked before a file is read: a misspelt -algos over
# a -data path that does not exist is an error naming the flag, not the file.
if bad=$("$tmpdir/psiquery" -data "$tmpdir/missing.txt" -queries "$tmpdir/q.txt" -algos Ullmann 2>&1); then
    echo "psiquery smoke: -algos Ullmann was accepted" >&2
    exit 1
fi
echo "$bad" | grep -q -- '-algos' && ! echo "$bad" | grep -q 'missing.txt' || {
    echo "psiquery smoke: a bad -algos did not fail before the read: $bad" >&2
    exit 1
}

stage "snapshot smoke (corrupt, cold start)"
# On the snapshot the serve smoke's server saved after its fresh build, the
# way an operator makes one. First the fail-closed guarantee: flip one byte in
# the middle of the file and the load must be refused with a checksum error,
# never served from a corrupt state. Then a clean cold start through the real
# binary: psiserve -snapshot with no -data/-gen must come up from the file
# alone and answer a query with the object psiquery -json prints for it.
# (Answer parity of a cold start is TestEngineSnapshotRoundTripStatic/Mutable
# and the bench smoke above.)
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
# One schema from engine to wire: the collected reply is the object psiquery
# -json prints for the same query, byte for byte once the timing is masked.
mask_elapsed() { sed 's/"elapsed_us":[0-9]*/"elapsed_us":0/'; }
cli_ans=$("$tmpdir/psiquery" -data "$tmpdir/ds.txt" -queries "$tmpdir/q.txt" -index ftv -json)
[ "$(echo "$snap_ans" | mask_elapsed)" = "$(echo "$cli_ans" | mask_elapsed)" ] || {
    echo "snapshot smoke: server reply $snap_ans differs from psiquery -json $cli_ans" >&2
    exit 1
}
kill -TERM "$sserve_pid"
if ! wait "$sserve_pid"; then
    echo "snapshot smoke: cold-started psiserve did not exit 0 on SIGTERM" >&2
    cat "$tmpdir/sserve.log" >&2
    exit 1
fi
sserve_pid=""

stage "snapshot smoke (three names, one table)"
# psiserve -index race serves ftv, grapes and ggsx from one table per shard
# and saves a version-1 file with a section per name, all written from that
# table. A second server cold-starts from the file alone — restoring one
# table from the three sections — and must answer a query.
"$tmpdir/psiserve" -data "$tmpdir/ds.txt" -index race -snapshot "$tmpdir/race.psisnap" \
    -addr 127.0.0.1:0 -portfile "$tmpdir/rport" 2> "$tmpdir/rserve.log" &
sserve_pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/rport" ] && break; sleep 0.1; done
kill -TERM "$sserve_pid"
wait "$sserve_pid" && grep -q "snapshot saved" "$tmpdir/rserve.log" && [ -s "$tmpdir/race.psisnap" ] || {
    echo "snapshot smoke: psiserve -index race did not save a snapshot and drain" >&2
    cat "$tmpdir/rserve.log" >&2
    exit 1
}
"$tmpdir/psiserve" -snapshot "$tmpdir/race.psisnap" \
    -addr 127.0.0.1:0 -portfile "$tmpdir/rsport" 2> "$tmpdir/rsserve.log" &
sserve_pid=$!
for _ in $(seq 100); do [ -s "$tmpdir/rsport" ] && break; sleep 0.1; done
race_ans=$(curl -sf -X POST --data-binary @"$tmpdir/q.txt" \
    "http://127.0.0.1:$(cat "$tmpdir/rsport")/query?cache=0")
echo "$race_ans" | grep -q '"graph_ids"' || {
    echo "snapshot smoke: server cold-started from the three-name file gave no answer: $race_ans" >&2
    cat "$tmpdir/rsserve.log" >&2
    exit 1
}
kill -TERM "$sserve_pid"
if ! wait "$sserve_pid"; then
    echo "snapshot smoke: psiserve cold-started from the three-name file did not exit 0 on SIGTERM" >&2
    cat "$tmpdir/rsserve.log" >&2
    exit 1
fi
sserve_pid=""

stage "churn smoke (mutable engine, race-enabled binary)"
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

stage ""
echo "All checks passed in $SECONDS s."
