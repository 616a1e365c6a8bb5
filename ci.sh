#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, build, full test suite.
# Fully offline — the workspace vendors its few dependencies as path crates,
# so no step here touches the network.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Broken, private and ambiguous intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> RISC-V conformance tier (explicit rerun of the frontend gate)"
# Already part of the workspace test run above; rerun by name so a frontend
# regression is unmistakable in the CI log rather than buried in the suite.
cargo test -q --offline --test riscv_frontend

echo "==> corpus smoke (RV32IM corpus on both engine paths, bit-identical)"
# The corpus apps are assembled from source and executed at harness start,
# then run through the noise model on the fused kernel (default) and the
# per-cycle reference loop (RESTUNE_KERNEL=off). Every deterministic report
# section must be bit-identical across the two engine paths; run_metrics
# carries wall times and is excluded.
corpus_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_riscv -n 20000 --json > "$corpus_dir/fused.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" RESTUNE_KERNEL=off \
    ./target/release/table3_riscv -n 20000 --json > "$corpus_dir/reference.json"
python3 - "$corpus_dir/fused.json" "$corpus_dir/reference.json" <<'EOF'
import json, sys
fused, reference = (json.load(open(p)) for p in sys.argv[1:])
apps = [r["app"] for r in fused["programs"]]
assert len(apps) >= 2, f"corpus smoke: expected several corpus apps, got {apps}"
for section in ("programs", "table3_riscv", "techniques", "outcomes"):
    assert fused[section] == reference[section], \
        f"corpus smoke: section {section!r} differs between engine paths"
viol = {r["app"]: r["violation_cycles"] for r in fused["run_metrics"]}
assert viol.get("resonance", 0) > 0, \
    f"corpus smoke: resonance must violate on the base machine: {viol}"
assert all(v == 0 for a, v in viol.items() if a != "resonance"), \
    f"corpus smoke: only resonance may violate on the base machine: {viol}"
print(f"corpus ok: {len(apps)} programs bit-identical across engine paths")
EOF

echo "==> fault-injection smoke (seeded plan, degraded run must exit 0)"
# Seed 42 injects at least one fault across the suite (pinned by the
# seeded_plan_injects_somewhere_across_a_suite unit test). The degraded run
# must still exit 0 and its JSON must carry a populated failures section.
smoke_out=$(RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --faults 42 --timeout 60 --json)
echo "$smoke_out" | grep -q '"failures"' || {
    echo "fault smoke: no failures section in --json output" >&2
    exit 1
}
echo "$smoke_out" | grep -q '"injected"' || {
    echo "fault smoke: seeded plan injected nothing" >&2
    exit 1
}

echo "==> chaos smoke (abort + SIGKILL workers, SIGKILL the harness, resume from the run store)"
# Two workers die hard — one aborts, one SIGKILLs itself. Under
# RESTUNE_ISOLATION=process the suite must contain both crashes to their
# slots and exit 0 (the plan is enabled, so the failures are the
# experiment). --resume puts every run into the run store under the cache
# dir the moment it succeeds, so a second invocation against the same cache
# dir replays the stored runs, heals the crashed applications, and must be
# bit-identical to an uninterrupted reference run against a fresh cache. A
# fourth invocation, of the now-complete suite, replays every row. A
# checkpoint is just the store: the cache dirs hold run-store records and
# nothing else.
chaos_dir=$(mktemp -d)
ref_dir=$(mktemp -d)
chaos_out=$(mktemp -d)
RESTUNE_CACHE_DIR="$chaos_dir" RESTUNE_ISOLATION=process \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    --fault mcf=abort --fault swim=kill > "$chaos_out/chaos.json"
RESTUNE_CACHE_DIR="$chaos_dir" RESTUNE_ISOLATION=process \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    > "$chaos_out/resumed.json"
RESTUNE_CACHE_DIR="$ref_dir" \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    > "$chaos_out/reference.json"
RESTUNE_CACHE_DIR="$chaos_dir" RESTUNE_ISOLATION=process \
    ./target/release/suite_check -n 20000 --timeout 60 --resume --json \
    > "$chaos_out/replayed.json"
python3 - "$chaos_out" "$chaos_dir" "$ref_dir" <<'EOF'
import json, os, re, sys
out, caches = sys.argv[1], sys.argv[2:]
chaos, resumed, reference, replayed = (
    json.load(open(f"{out}/{name}.json"))
    for name in ("chaos", "resumed", "reference", "replayed"))
failed = [r for r in chaos["failures"] if r["event"] == "failed"]
assert failed, "chaos run recorded no terminal failures"
assert {r["app"] for r in failed} == {"mcf", "swim"}, failed
assert {r["kind"] for r in failed} == {"crash"}, failed
surviving = {r["app"] for r in chaos["suite_check"]}
assert surviving, "every other application must still complete"
assert not {"mcf", "swim"} & surviving, surviving
assert not [r for r in resumed["failures"] if r["event"] == "failed"], \
    "the resumed run must heal the crashed applications"
replays = sum(1 for r in resumed["run_metrics"] if r["replayed"])
assert replays, "the resumed run must replay stored applications"
assert resumed["suite_check"] == reference["suite_check"], \
    "resumed suite must be bit-identical to an uninterrupted reference"
rows = replayed["run_metrics"]
assert rows and all(r["replayed"] for r in rows), \
    "a rerun of the completed suite must replay every run_metrics row"
assert replayed["suite_check"] == reference["suite_check"], \
    "the replayed suite must be bit-identical to the reference"
for cache in caches:
    for root, dirs, files in os.walk(cache):
        rel = os.path.relpath(root, cache)
        assert rel in (".", "store"), f"{cache}: unexpected directory {rel!r}"
        for name in files:
            path = os.path.normpath(os.path.join(rel, name))
            assert re.fullmatch(r"store/run-[0-9a-f]{16}\.tsv", path), \
                f"{cache}: {path!r} is not a run-store record"
print(f"chaos ok: {len(failed)} contained crashes, {replays} replayed rows on "
      f"resume, {len(rows)} on rerun; the caches hold run-store records only")
EOF
# Long-lived workers: a traced process-tier run on two pool threads, over a
# copy of the reference run's cache, so the base suite replays from the run
# store and the tuning suite's runs are the only process-tier jobs. Each
# pool thread keeps one worker for the whole suite: at most two spawns, and
# every other job goes to a reused worker. The report must match the
# in-process reference.
reuse_dir=$(mktemp -d)
cp -R "$ref_dir/." "$reuse_dir/"
RESTUNE_CACHE_DIR="$reuse_dir" RESTUNE_ISOLATION=process RESTUNE_WORKERS=2 \
    ./target/release/suite_check -n 20000 --json \
    --trace-out "$chaos_out/trace.jsonl" > "$chaos_out/reused.json"
python3 - "$chaos_out/reused.json" "$chaos_out/reference.json" "$chaos_out/trace.jsonl" <<'EOF'
import json, sys
reused, reference = (json.load(open(p)) for p in sys.argv[1:3])
assert reused["suite_check"] == reference["suite_check"], \
    "the reused-worker suite diverged from the in-process reference"
with open(sys.argv[3]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
counters = {l["name"]: l["value"] for l in lines if l["kind"] == "counter"}
jobs = sum(1 for l in lines if l["kind"] == "run-start")
spawned = counters.get("isolation.workers_spawned", 0)
reused_jobs = counters.get("isolation.workers_reused", 0)
assert jobs > 2, f"only {jobs} process-tier jobs ran"
assert 1 <= spawned <= 2, f"{spawned} workers spawned for {jobs} jobs on 2 threads"
assert reused_jobs >= jobs - 2, \
    f"only {reused_jobs} of {jobs} jobs went to a reused worker"
print(f"reuse ok: {jobs} jobs on {spawned} workers ({reused_jobs} reused)")
EOF
# SIGKILL the harness itself mid-suite. On the thread tier the harness is
# the process that puts, and the kill lands before its suite's durability
# barrier: every record whose put returned lives in the page cache, so the
# resume must replay at least the records counted before the kill and
# must equal a reference run at the same -n. A put the kill interrupts
# leaves its tmp file (store/run-<fp>.tmp.<pid>.<seq>) in this cache dir,
# as expected; eviction removes such a leftover once it is an hour old.
kill_dir=$(mktemp -d)
kill_n=400000
# The number of run-store records in cache dir $1.
stored() { find "$1/store" -name 'run-*.tsv' 2>/dev/null | wc -l; }
# Waits until the suite_check with pid $2 has stored 8 records in cache dir
# $1 (~1 s into a -n 400000 suite); fails the stage named $3 if it finishes
# first or takes over 120 s.
await_records() {
    deadline=$(( $(date +%s) + 120 ))
    while [ "$(stored "$1")" -lt 8 ]; do
        kill -0 "$2" 2>/dev/null || {
            echo "$3: suite_check finished before it could be signalled" >&2
            exit 1
        }
        [ "$(date +%s)" -lt "$deadline" ] || {
            kill -KILL "$2"
            echo "$3: suite_check stored no 8 records in 120 s" >&2
            exit 1
        }
        sleep 0.05
    done
}
RESTUNE_CACHE_DIR="$kill_dir" RESTUNE_ISOLATION=thread \
    ./target/release/suite_check -n "$kill_n" --resume --json \
    > /dev/null &
victim=$!
await_records "$kill_dir" "$victim" "chaos smoke"
before_kill=$(stored "$kill_dir")
kill -KILL "$victim"
status=0
wait "$victim" || status=$?
[ "$status" -eq 137 ] || {
    echo "chaos smoke: suite_check exited $status, not by SIGKILL mid-suite" >&2
    exit 1
}
RESTUNE_CACHE_DIR="$kill_dir" RESTUNE_ISOLATION=thread \
    ./target/release/suite_check -n "$kill_n" --resume --json \
    > "$chaos_out/kill_resumed.json"
# The uninterrupted reference run also pins the trace store's memory:
# 26 profiles at -n 400000 decode ~159 MiB of 16-byte prefixes, so the
# whole process must peak below 224 MiB (32-byte prefixes peaked near
# 326 MiB). ru_maxrss is in KiB on Linux.
RESTUNE_CACHE_DIR="$(mktemp -d)" RESTUNE_ISOLATION=thread \
    python3 - "$chaos_out/kill_reference.json" \
    ./target/release/suite_check -n "$kill_n" --resume --json <<'EOF'
import resource, subprocess, sys
out, argv = sys.argv[1], sys.argv[2:]
with open(out, "w") as f:
    subprocess.run(argv, stdout=f, check=True)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mib < 224, \
    f"suite_check -n {argv[2]} peaked at {peak_mib:.1f} MiB, not below 224 MiB"
print(f"memory ok: suite_check -n {argv[2]} peaked at {peak_mib:.1f} MiB")
EOF
python3 - "$chaos_out" "$kill_dir" "$before_kill" <<'EOF'
import json, os, re, sys
out, cache, before_kill = sys.argv[1], sys.argv[2], int(sys.argv[3])
resumed, reference = (json.load(open(f"{out}/kill_{name}.json"))
                      for name in ("resumed", "reference"))
rows = resumed["run_metrics"]
replays = sum(1 for r in rows if r["replayed"])
assert replays >= before_kill, \
    f"the resume replayed {replays} runs, but {before_kill} were stored before the kill"
assert replays < len(rows), "the kill landed after the suite had finished"
assert resumed["suite_check"] == reference["suite_check"], \
    "the suite resumed after a SIGKILL must equal an uninterrupted reference"
names = os.listdir(f"{cache}/store")
for name in names:
    assert re.fullmatch(r"run-[0-9a-f]{16}\.(tsv|tmp\.\d+\.\d+)", name), \
        f"{name!r} is neither a run-store record nor a put's tmp file"
leftovers = sum(".tmp." in name for name in names)
print(f"harness kill ok: {before_kill} records before the SIGKILL, {replays} of "
      f"{len(rows)} runs replayed on resume, {leftovers} tmp leftovers")
EOF

echo "==> flag invariance and the exit rule (the seven suite harnesses)"
# Every suite harness runs with --json -n 5000 twice, each on a fresh cache:
# with no flags (the inert policy, served through the base-suite memo) and
# with --resume (through the run store). Every section but run_metrics
# (timings and memo counters) and failures must be equal; the inert run
# prints no failures section and the --resume run an empty one.
flags_dir=$(mktemp -d)
for h in table2_classification table3_tuning table3_riscv table4_sensor \
        table5_damping fig5_comparison suite_check; do
    RESTUNE_CACHE_DIR="$(mktemp -d)" \
        ./target/release/$h --json -n 5000 > "$flags_dir/$h.plain.json"
    RESTUNE_CACHE_DIR="$(mktemp -d)" \
        ./target/release/$h --json -n 5000 --resume > "$flags_dir/$h.resume.json"
done
python3 - "$flags_dir" <<'EOF'
import json, os, sys
d = sys.argv[1]
names = sorted({f.split(".")[0] for f in os.listdir(d)})
assert len(names) == 7, f"expected seven harnesses, got {names}"
for name in names:
    plain, resume = (json.load(open(f"{d}/{name}.{mode}.json"))
                     for mode in ("plain", "resume"))
    assert "failures" not in plain, f"{name}: the inert run printed a failures section"
    assert resume.get("failures") == [], \
        f"{name}: --resume reported failures: {resume.get('failures')}"
    sections = [s for s in plain if s != "run_metrics"]
    assert sections == [s for s in resume if s not in ("run_metrics", "failures")], \
        f"{name}: sections differ: {list(plain)} vs {list(resume)}"
    for s in sections:
        assert plain[s] == resume[s], \
            f"{name}: section {s!r} differs between no flags and --resume"
print(f"flag invariance ok: {len(names)} harnesses report the same sections "
      f"with and without --resume")
EOF
# The exit rule: an unplanned failure exits 1 and still prints its report.
# A 1 us watchdog times out every run at cycle 0.
status=0
RESTUNE_CACHE_DIR="$(mktemp -d)" ./target/release/table2_classification \
    -n 2000 --timeout 0.000001 > "$flags_dir/timeout.out" || status=$?
[ "$status" -eq 1 ] || {
    echo "exit rule: an unplanned timeout exited $status, not 1" >&2
    exit 1
}
grep -q '(timeout: ' "$flags_dir/timeout.out" || {
    echo "exit rule: the timed-out run printed no failures" >&2
    exit 1
}
# A SIGINT exits 130, after the partial report lists the interrupted slots.
int_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$int_dir" RESTUNE_ISOLATION=thread \
    ./target/release/suite_check -n "$kill_n" --resume > "$flags_dir/sigint.out" &
victim=$!
await_records "$int_dir" "$victim" "exit rule"
kill -INT "$victim"
status=0
wait "$victim" || status=$?
[ "$status" -eq 130 ] || {
    echo "exit rule: suite_check exited $status after SIGINT, not 130" >&2
    exit 1
}
grep -q '(interrupted: ' "$flags_dir/sigint.out" || {
    echo "exit rule: the interrupted suite listed no interrupted slots" >&2
    exit 1
}
echo "exit rule ok: an unplanned failure exits 1; SIGINT exits 130 with a partial report"

echo "==> noise_lab exit convention (help on stdout, bad arguments exit 2)"
# Like every harness's --help: help, --help and -h print the usage to
# stdout and exit 0. An unknown command or a malformed argument prints it
# to stderr and exits 2; a command that runs and fails exits 1.
lab_dir=$(mktemp -d)
# Runs noise_lab with the arguments after $1 and $2; fails unless it exits
# $1 with the usage on the stream $2 names (stdout, stderr or none).
lab_case() {
    want=$1 usage_on=$2
    shift 2
    status=0
    ./target/release/noise_lab "$@" > "$lab_dir/stdout" 2> "$lab_dir/stderr" \
        || status=$?
    [ "$status" -eq "$want" ] || {
        echo "noise_lab $*: exited $status, not $want" >&2
        exit 1
    }
    for stream in stdout stderr; do
        if grep -q '^usage: noise_lab' "$lab_dir/$stream"; then
            [ "$stream" = "$usage_on" ] || {
                echo "noise_lab $*: usage printed on $stream" >&2
                exit 1
            }
        elif [ "$stream" = "$usage_on" ]; then
            echo "noise_lab $*: no usage on $stream" >&2
            exit 1
        fi
    done
}
lab_case 0 stdout help
lab_case 0 stdout --help
lab_case 0 stdout -h
lab_case 2 stderr frobnicate
lab_case 2 stderr impedance --lo abc
lab_case 2 stderr calibrate --max-variation -5
lab_case 2 stderr analyze --max-variation -5
lab_case 1 none calibrate --clock 0
echo "noise_lab ok: help exits 0 on stdout, bad arguments 2, a failing command 1"

echo "==> trace smoke (traced suite bit-identical, schema-valid, windows present)"
# A traced run must be pure observation: the "suite_check" section (the
# deterministic simulation results) must be bit-identical to an untraced
# reference. run_metrics wall-time fields differ between ANY two runs, so
# the comparison targets the simulation section only. The trace itself must
# pass trace_report --check (the schema gate) and carry waveform windows —
# at this budget the base machine violates, so windows are guaranteed.
trace_dir=$(mktemp -d)
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --timeout 60 --json \
    --trace-out "$trace_dir/trace.jsonl" > "$trace_dir/traced.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --timeout 60 --json \
    > "$trace_dir/reference.json"
./target/release/trace_report --check "$trace_dir/trace.jsonl" > /dev/null
python3 - "$trace_dir/traced.json" "$trace_dir/reference.json" "$trace_dir/trace.jsonl" <<'EOF'
import json, sys
traced, reference = (json.load(open(p)) for p in sys.argv[1:3])
assert traced["suite_check"] == reference["suite_check"], \
    "tracing changed simulation results"
kinds = set()
with open(sys.argv[3]) as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert lines, "traced run emitted no events"
kinds = {l["kind"] for l in lines}
for k in ("suite-start", "run-start", "violation", "waveform", "run-end",
          "suite-end", "counter"):
    assert k in kinds, f"trace missing {k!r} events: {sorted(kinds)}"
windows = [l for l in lines if l["kind"] == "waveform"]
assert all(l["samples"] for l in windows), "empty waveform window"
print(f"trace ok: {len(lines)} events, {len(windows)} waveform windows")
EOF

echo "==> kernel bench smoke (--test mode + BENCH_kernel.json schema)"
# The kernel bench in --test mode runs a few alternated passes per row on
# shrunk workloads and still writes its JSON document (to a scratch path
# here, so the committed full-scale BENCH_kernel.json is not overwritten).
# The validator guards the schema and the internal consistency of every
# median and its quartiles — numbers vary by machine, the shape must not.
smoke_json="$(mktemp -d)/BENCH_kernel.json"
RESTUNE_BENCH_OUT="$smoke_json" cargo bench -q --bench kernel --offline -- --test
python3 - "$smoke_json" BENCH_kernel.json <<'EOF'
import json, sys
def spread_ok(where, q1, median, q3):
    assert q1 <= median <= q3, f"{where}: quartiles out of order: {q1} {median} {q3}"
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "restune-kernel-bench-v4", \
        f"{path}: schema drift: {doc.get('schema')!r}"
    for key in ("mode", "batch_size", "benchmarks", "table3_suite"):
        assert key in doc, f"{path}: missing top-level key {key!r}"
    assert doc["benchmarks"], f"{path}: no benchmark rows"
    for side in ("fused", "reference"):
        setup = [r for r in doc["benchmarks"] if (r["name"], r["path"]) == ("setup", side)]
        assert len(setup) == 1, f"{path}: expected one setup/{side} row"
        assert setup[0]["instructions_per_run"] == 1, \
            f"{path}: setup/{side} must time one-instruction runs"
    for row in doc["benchmarks"]:
        for key in ("name", "path", "instructions_per_run", "runs", "cycles",
                    "passes", "wall_seconds", "wall_seconds_q1", "wall_seconds_q3",
                    "ns_per_cycle", "cycles_per_second",
                    "cycles_per_second_q1", "cycles_per_second_q3"):
            assert key in row, f"{path}: benchmark row missing {key!r}"
        where = f"{path}: {row['name']}/{row['path']}"
        spread_ok(where + " wall", row["wall_seconds_q1"], row["wall_seconds"],
                  row["wall_seconds_q3"])
        spread_ok(where + " rate", row["cycles_per_second_q1"],
                  row["cycles_per_second"], row["cycles_per_second_q3"])
        if doc["mode"] == "full":
            assert row["passes"] >= 11, f"{where}: {row['passes']} passes, need >= 11"
    suite = doc["table3_suite"]
    for key in ("apps", "instructions_per_app", "passes",
                "fused_wall_seconds", "fused_cycles_per_second",
                "fused_cycles_per_second_q1", "fused_cycles_per_second_q3",
                "reference_wall_seconds", "reference_cycles_per_second",
                "reference_cycles_per_second_q1", "reference_cycles_per_second_q3",
                "speedup_cycles_per_second"):
        assert key in suite, f"{path}: table3_suite missing {key!r}"
    for side in ("fused", "reference"):
        spread_ok(f"{path}: table3_suite {side}", suite[f"{side}_cycles_per_second_q1"],
                  suite[f"{side}_cycles_per_second"], suite[f"{side}_cycles_per_second_q3"])
    speedup = suite["fused_cycles_per_second"] / suite["reference_cycles_per_second"]
    assert abs(speedup - suite["speedup_cycles_per_second"]) <= 1e-9 * speedup, \
        f"{path}: the suite speedup is not the ratio of the medians"
    print(f"{path}: schema ok ({doc['mode']} mode)")
EOF

echo "==> server smoke (restuned: chaos tenants, SIGTERM drain, cache resume)"
# A restuned server with seeded network-fault injection armed serves two
# healthy tenants and two deliberately misbehaving ones concurrently; every
# tenant's deterministic sections must come out bit-identical to in-process
# references. Then SIGTERM lands under load: the server must drain and exit
# 0, and a restart over the same cache directory must serve the persisted
# results back (every job a cache hit, none recomputed).
srv_dir=$(mktemp -d)
sock="$srv_dir/restuned.sock"
# The pids of live `restuned worker` processes: children of pid $1, or any
# when $1 is "any".
restuned_workers() {
    python3 - "$1" <<'EOF'
import os, sys
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        argv = open(f"/proc/{pid}/cmdline", "rb").read().split(b"\0")
        ppid = open(f"/proc/{pid}/stat").read().rsplit(")", 1)[1].split()[1]
    except (OSError, IndexError):
        continue
    if argv[0].endswith(b"restuned") and argv[1:2] == [b"worker"] \
            and sys.argv[1] in ("any", ppid):
        print(pid)
EOF
}
RESTUNE_CACHE_DIR="$srv_dir/cache" \
    ./target/release/restuned --socket "$sock" --faults 7 \
    2> "$srv_dir/restuned.log" &
srv_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "server smoke: restuned did not bind" >&2; exit 1; }

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json > "$srv_dir/ref_suite.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_tuning -n 8000 --json > "$srv_dir/ref_table3.json"

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/thin_suite.json" &
healthy_a=$!
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/table3_tuning -n 8000 --json --connect "$sock" \
    > "$srv_dir/thin_table3.json" &
healthy_b=$!
RESTUNE_NET_FAULT=disconnect:5 RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/fault_disconnect.json" &
chaos_a=$!
RESTUNE_NET_FAULT=truncate:3 RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/fault_truncate.json" &
chaos_b=$!
for pid in $healthy_a $healthy_b $chaos_a $chaos_b; do
    wait "$pid" || { echo "server smoke: a tenant exited non-zero" >&2; exit 1; }
done
python3 - "$srv_dir" <<'EOF'
import json, sys
d = sys.argv[1]
load = lambda name: json.load(open(f"{d}/{name}.json"))
ref_suite, ref_table3 = load("ref_suite"), load("ref_table3")
for name in ("thin_suite", "fault_disconnect", "fault_truncate"):
    doc = load(name)
    assert doc["suite_check"] == ref_suite["suite_check"], \
        f"{name}: thin-client suite diverged from the in-process reference"
thin3 = load("thin_table3")
for section in ("table3", "outcomes"):
    assert thin3[section] == ref_table3[section], \
        f"thin_table3: section {section!r} diverged from the reference"
print("server smoke: 4 tenants bit-identical to in-process references")
EOF

# SIGTERM under load: a fresh tenant is mid-suite when the signal lands.
# The server drains (finishing and persisting what was admitted) and must
# exit 0; the interrupted tenant may fail and that is fine — its completed
# jobs live on in the cache.
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > /dev/null 2>&1 &
load_pid=$!
sleep 1
# Every job so far ran on a long-lived worker child, idle now or busy: the
# server holds at least one, and the drain must retire them all.
[ -n "$(restuned_workers "$srv_pid")" ] || {
    echo "server smoke: the server holds no worker children before SIGTERM" >&2
    exit 1
}
kill -TERM "$srv_pid"
srv_status=0
wait "$srv_pid" || srv_status=$?
[ "$srv_status" -eq 0 ] || {
    echo "server smoke: SIGTERM drain exited $srv_status" >&2
    exit 1
}
grep -q 'restuned: drained' "$srv_dir/restuned.log" || {
    echo "server smoke: no drain summary in the server log" >&2
    exit 1
}
leftover=$(restuned_workers any)
[ -z "$leftover" ] || {
    echo "server smoke: restuned worker processes outlived the drain: $leftover" >&2
    exit 1
}
wait "$load_pid" || true

RESTUNE_CACHE_DIR="$srv_dir/cache" \
    ./target/release/restuned --socket "$sock" \
    2> "$srv_dir/restuned2.log" &
srv_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$sock" \
    > "$srv_dir/resumed.json"
kill -TERM "$srv_pid"
srv_status=0
wait "$srv_pid" || srv_status=$?
[ "$srv_status" -eq 0 ] || {
    echo "server smoke: restarted server drain exited $srv_status" >&2
    exit 1
}
python3 - "$srv_dir" <<'EOF'
import json, re, sys
d = sys.argv[1]
resumed = json.load(open(f"{d}/resumed.json"))
reference = json.load(open(f"{d}/ref_suite.json"))
assert resumed["suite_check"] == reference["suite_check"], \
    "post-restart suite diverged from the in-process reference"
log = open(f"{d}/restuned2.log").read()
m = re.search(r"restuned: drained; (.*)", log)
assert m, f"no drain summary in the restarted server log:\n{log}"
stats = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", m.group(1))}
# The healthy tenants completed these very jobs before the drain, and every
# record is persisted before its reply: the restart must simulate nothing.
assert stats["cache_hits"] > 0 and stats["jobs_run"] == 0 \
    and stats["cache_misses"] == 0, \
    f"the restarted server recomputed jobs it had already answered: {stats}"
print(f"server smoke: restart served all {stats['cache_hits']} jobs from its store "
      f"after SIGTERM drain")
EOF

echo "==> mesh chaos smoke (3-host shard mesh: kill -KILL + restart, bit-identical)"
# Three fault-seeded restuned hosts behind one comma-separated --connect
# list. A healthy traced run first learns which host owns the most jobs
# under rendezvous sharding (the per-host mesh counters), then that host is
# SIGKILLed just as a fresh tenant starts and restarted mid-suite. The
# tenant's report must come out bit-identical to the in-process reference,
# and the trace must prove failover actually happened (mesh.reroutes > 0).
mesh_dir=$(mktemp -d)
m0="$mesh_dir/host0.sock"
m1="$mesh_dir/host1.sock"
m2="$mesh_dir/host2.sock"
RESTUNE_CACHE_DIR="$mesh_dir/cache0" ./target/release/restuned --socket "$m0" \
    --faults 7 --mesh-peer "$m1" --mesh-peer "$m2" 2> "$mesh_dir/host0.log" &
mesh_pid0=$!
RESTUNE_CACHE_DIR="$mesh_dir/cache1" ./target/release/restuned --socket "$m1" \
    --faults 8 --mesh-peer "$m0" --mesh-peer "$m2" 2> "$mesh_dir/host1.log" &
mesh_pid1=$!
RESTUNE_CACHE_DIR="$mesh_dir/cache2" ./target/release/restuned --socket "$m2" \
    --faults 9 --mesh-peer "$m0" --mesh-peer "$m1" 2> "$mesh_dir/host2.log" &
mesh_pid2=$!
for _ in $(seq 50); do
    [ -S "$m0" ] && [ -S "$m1" ] && [ -S "$m2" ] && break
    sleep 0.1
done
[ -S "$m0" ] && [ -S "$m1" ] && [ -S "$m2" ] || {
    echo "mesh smoke: a restuned host did not bind" >&2; exit 1; }

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json > "$mesh_dir/reference.json"
RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$m0,$m1,$m2" \
    --trace-out "$mesh_dir/healthy.jsonl" > "$mesh_dir/healthy.json"
./target/release/trace_report --check "$mesh_dir/healthy.jsonl" > /dev/null
victim=$(python3 - "$mesh_dir/healthy.jsonl" <<'EOF'
import json, sys
jobs = {}
for line in open(sys.argv[1]):
    if not line.strip():
        continue
    e = json.loads(line)
    if e.get("kind") == "counter" and e.get("name", "").startswith("mesh.host") \
            and e["name"].endswith(".jobs"):
        host = int(e["name"][len("mesh.host"):-len(".jobs")])
        jobs[host] = jobs.get(host, 0) + int(e["value"])
assert jobs, "healthy mesh run recorded no per-host job counters"
print(max(jobs, key=lambda h: jobs[h]))
EOF
)
case "$victim" in
    0) victim_pid=$mesh_pid0; victim_sock=$m0; victim_seed=7 ;;
    1) victim_pid=$mesh_pid1; victim_sock=$m1; victim_seed=8 ;;
    2) victim_pid=$mesh_pid2; victim_sock=$m2; victim_seed=9 ;;
    *) echo "mesh smoke: bogus victim index '$victim'" >&2; exit 1 ;;
esac

RESTUNE_CACHE_DIR="$(mktemp -d)" \
    ./target/release/suite_check -n 20000 --json --connect "$m0,$m1,$m2" \
    --trace-out "$mesh_dir/chaos.jsonl" > "$mesh_dir/chaos.json" &
tenant_pid=$!
kill -KILL "$victim_pid"
wait "$victim_pid" 2>/dev/null || true
sleep 0.5
RESTUNE_CACHE_DIR="$mesh_dir/cache$victim" ./target/release/restuned \
    --socket "$victim_sock" --faults "$victim_seed" \
    2> "$mesh_dir/host$victim.restart.log" &
restarted_pid=$!
wait "$tenant_pid" || { echo "mesh smoke: tenant exited non-zero" >&2; exit 1; }
./target/release/trace_report --check "$mesh_dir/chaos.jsonl" > /dev/null
python3 - "$mesh_dir" <<'EOF'
import json, sys
d = sys.argv[1]
reference = json.load(open(f"{d}/reference.json"))
for name in ("healthy", "chaos"):
    doc = json.load(open(f"{d}/{name}.json"))
    assert doc["suite_check"] == reference["suite_check"], \
        f"{name}: mesh suite diverged from the in-process reference"
reroutes = 0
for line in open(f"{d}/chaos.jsonl"):
    if not line.strip():
        continue
    e = json.loads(line)
    if e.get("kind") == "counter" and e.get("name") == "mesh.reroutes":
        reroutes += int(e["value"])
assert reroutes > 0, "a SIGKILLed home host must force failover reroutes"
print(f"mesh smoke: kill+restart bit-identical, {reroutes} failover reroutes")
EOF
case "$victim" in
    0) mesh_pid0=$restarted_pid ;;
    1) mesh_pid1=$restarted_pid ;;
    2) mesh_pid2=$restarted_pid ;;
esac
for pid in $mesh_pid0 $mesh_pid1 $mesh_pid2; do
    kill -TERM "$pid"
    wait "$pid" || { echo "mesh smoke: a host failed to drain" >&2; exit 1; }
done
grep -q 'probes=' "$mesh_dir"/host*.log || {
    echo "mesh smoke: drain summary lost its probes counter" >&2; exit 1; }

echo "==> sweep smoke (grid sweep: store sharing, frontier byte-identity, mesh)"
# The same small grid runs once per execution path against fresh caches —
# the default worker pool, serial (RESTUNE_WORKERS=1), and through a
# restuned host (--connect; the scaled-PDN points fall back to local
# execution by design) — and the Pareto frontier must come out
# byte-identical from all three.
# A repeat run over the first cache must then serve every previously
# computed run from the content-addressed store (hits == runs in the
# --json store section), reproducing the frontier without simulating.
# The sweep trace must pass the trace_report --check schema gate, which
# validates the sweep-point / frontier-point / sweep-end event shapes.
sweep_dir=$(mktemp -d)
sweep_grid="--grid pdn=1.0,1.5 --grid tuning=75,100"
RESTUNE_CACHE_DIR="$sweep_dir/pool" ./target/release/sweep -n 8000 \
    $sweep_grid --json --trace-out "$sweep_dir/sweep.jsonl" \
    > "$sweep_dir/pool.json"
./target/release/trace_report --check "$sweep_dir/sweep.jsonl" > /dev/null
RESTUNE_CACHE_DIR="$sweep_dir/serial" RESTUNE_WORKERS=1 ./target/release/sweep \
    -n 8000 $sweep_grid --json > "$sweep_dir/serial.json"
sweep_sock="$sweep_dir/restuned.sock"
RESTUNE_CACHE_DIR="$sweep_dir/server-cache" \
    ./target/release/restuned --socket "$sweep_sock" \
    2> "$sweep_dir/restuned.log" &
sweep_srv=$!
for _ in $(seq 50); do [ -S "$sweep_sock" ] && break; sleep 0.1; done
[ -S "$sweep_sock" ] || { echo "sweep smoke: restuned did not bind" >&2; exit 1; }
RESTUNE_CACHE_DIR="$sweep_dir/mesh" ./target/release/sweep -n 8000 \
    $sweep_grid --json --connect "$sweep_sock" > "$sweep_dir/mesh.json"
kill -TERM "$sweep_srv"
wait "$sweep_srv" || { echo "sweep smoke: restuned failed to drain" >&2; exit 1; }
RESTUNE_CACHE_DIR="$sweep_dir/pool" ./target/release/sweep -n 8000 \
    $sweep_grid --json > "$sweep_dir/replay.json"
python3 - "$sweep_dir" <<'EOF'
import json, sys
d = sys.argv[1]
load = lambda name: json.load(open(f"{d}/{name}.json"))
pool, serial, mesh, replay = (load(n) for n in ("pool", "serial", "mesh", "replay"))
for name, doc in (("serial", serial), ("mesh", mesh), ("replay", replay)):
    assert doc["frontier"] == pool["frontier"], \
        f"{name}: Pareto frontier diverged from the worker-pool run"
    assert doc["sweep"] == pool["sweep"], \
        f"{name}: sweep points diverged from the worker-pool run"
assert pool["frontier"], "sweep produced an empty frontier"
store = replay["store"][0]
assert store["store_hits"] == store["runs"] and store["store_misses"] == 0, \
    f"replay must serve every run from the store: {store}"
first_store = pool["store"][0]
assert first_store["store_hits"] == 0, \
    f"a fresh cache cannot hit the store: {first_store}"
kinds = {json.loads(l)["kind"] for l in open(f"{d}/sweep.jsonl") if l.strip()}
for k in ("sweep-start", "sweep-point", "frontier-point", "sweep-end"):
    assert k in kinds, f"sweep trace missing {k!r} events: {sorted(kinds)}"
print(f"sweep ok: {len(pool['sweep'])} points, {len(pool['frontier'])} on the "
      f"frontier, byte-identical across pool/serial/mesh, "
      f"{store['store_hits']} store-served on replay")
EOF

echo "==> benchmark smoke (restune-bench self-checks at the smoke budget)"
# The repository benchmark is a cargo workspace of its own under benchmark/.
# Its smoke test runs every workload, untraced and traced, on tiny budgets:
# a server, store or isolation change that breaks a workload's self-checks
# or drops a metric fails here rather than at benchmark time.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> tier-1 green"
