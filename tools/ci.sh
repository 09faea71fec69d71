#!/usr/bin/env sh
# The one-command local CI gate: configure, build, and run the full test
# suite exactly as the tier-1 check does.
#
#   tools/ci.sh [build-dir]              # default: build
#   tools/ci.sh --sanitizers [build-dir] # additionally chain asan.sh and
#                                        # tsan.sh (their own build dirs)
#   tools/ci.sh --full [build-dir]       # sanitizers + the sharded
#                                        # determinism leg + the repository
#                                        # benchmark gate (dcdlbench/run.py
#                                        # --all) against the committed
#                                        # dcdlbench/baseline.json
#
# A clean exit means the tree is committable: every gtest suite passed;
# with --sanitizers the ASan+UBSan full suite and the TSan campaign +
# sharded-engine + dataplane + hybrid binaries are clean too; with --full
# the sharded engine additionally re-proves digest equality at 4 shards
# under TSan (the release-blocking determinism check), the in-switch
# dataplane pipeline re-proves its recovery timeline byte-identical across
# shard counts and across campaign --jobs under TSan, an ECN incast
# campaign re-proves its CNP feedback artifacts byte-identical across
# --jobs x --shards under TSan, dataplane, ECN and routing-loop campaigns
# re-prove their JSON, CSV and --trace trees byte-identical between the
# inline one-shard engine (--jobs 1 --shards 1) and four worker shards
# (--jobs 4 --shards 4) under TSan, the hybrid
# fluid/packet engine re-proves artifact byte-identity across
# --jobs x --shards and verdict agreement against the pure packet engine,
# and the repository benchmark held its baseline. The benchmark builds into
# its own directory (.bench_build/) — sanitizer builds are not valid
# timing baselines.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

sanitizers=0
perf=0
case "${1:-}" in
  --sanitizers)
    sanitizers=1
    shift
    ;;
  --full)
    sanitizers=1
    perf=1
    shift
    ;;
esac
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j"$(nproc)"
(cd "$build_dir" && ctest --output-on-failure -j"$(nproc)")

if [ "$perf" = 1 ]; then
  # Sharded determinism leg: the byte-identity suite (digests at 1/2/4/8
  # shards, summary + forensics equality at 4 shards) under ThreadSanitizer.
  # tsan.sh below runs the whole binary too; this explicit filtered pass is
  # the release-blocking check and fails fast before the perf gate.
  tsan_dir="$repo_root/build-tsan"
  cmake -B "$tsan_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$tsan_dir" --target test_sharded -j"$(nproc)"
  "$tsan_dir/tests/test_sharded" \
    --gtest_filter='ShardedDigest.*:ShardedRun.*'

  # Dataplane determinism leg: the in-switch detection/recovery pipeline
  # must produce the same detection/recovery timeline whatever the thread
  # layout. Two angles, both under TSan: the gtest shard-invariance suite
  # (legacy engine vs 1/2/4 shards inside one run), and a dcdl_sweep
  # recovery campaign whose JSON artifact must be byte-identical across
  # --jobs x --shards combinations.
  cmake --build "$tsan_dir" --target test_dataplane dcdl_sweep -j"$(nproc)"
  "$tsan_dir/tests/test_dataplane" --gtest_filter='DataplaneSharded.*'
  dp_sweep() {
    "$tsan_dir/examples/dcdl_sweep" --scenario valley \
      --set "dataplane=reroute" --seeds 2 --run_ms 6 --jobs "$1" \
      --shards "$2" --quiet --out "$3"
  }
  # Two identity classes (telemetry carries engine-internal counters, so
  # legacy shards=0 and sharded shards>=1 artifacts differ by design):
  # --jobs must not matter within either engine, --shards must not matter
  # within the sharded engine.
  dp_sweep 1 0 "$tsan_dir/dp_j1.json"
  dp_sweep 4 0 "$tsan_dir/dp_j4.json"
  dp_sweep 1 1 "$tsan_dir/dp_s1.json"
  dp_sweep 4 2 "$tsan_dir/dp_s2.json"
  cmp "$tsan_dir/dp_j1.json" "$tsan_dir/dp_j4.json"
  cmp "$tsan_dir/dp_s1.json" "$tsan_dir/dp_s2.json"

  # ECN feedback leg: CNPs skip the wire and cross shards on the
  # out-of-band channel, and the sender-side cnp observation is deferred on
  # the source host's shard. An ECN incast campaign must produce identical
  # JSON and --trace trees across --jobs x --shards, and its telemetry
  # dumps must actually carry cnp records.
  ecn_sweep() {
    rm -rf "$tsan_dir/ecn_$3"
    "$tsan_dir/examples/dcdl_sweep" --scenario incast --set "ecn=true" \
      --seeds 2 --run_ms 6 --jobs "$1" --shards "$2" --quiet \
      --trace "$tsan_dir/ecn_$3" --out "$tsan_dir/ecn_$3.json"
  }
  ecn_sweep 1 1 s1
  ecn_sweep 4 2 s2
  cmp "$tsan_dir/ecn_s1.json" "$tsan_dir/ecn_s2.json"
  diff -r "$tsan_dir/ecn_s1" "$tsan_dir/ecn_s2"
  for f in "$tsan_dir"/ecn_s1/*.telemetry.jsonl; do
    grep -q '"kind":"cnp"' "$f"
  done

  # Inline-shard leg: one shard runs inline on the job's thread (hooks fire
  # directly), four shards run on worker threads (hooks defer and merge at
  # window barriers). Both must write the same JSON, CSV and --trace trees
  # for the dataplane, ECN and routing-loop campaigns.
  inline_sweep() {
    out_dir="$tsan_dir/inline_$1_j$2s$3"
    rm -rf "$out_dir"
    mkdir -p "$out_dir"
    scenario=$1
    shift
    jobs=$1
    shards=$2
    shift 2
    "$tsan_dir/examples/dcdl_sweep" --scenario "$scenario" "$@" \
      --run_ms 6 --jobs "$jobs" --shards "$shards" --quiet \
      --trace "$out_dir/trace" --out "$out_dir/campaign.json" \
      --csv "$out_dir/campaign.csv"
  }
  for jobs_shards in "1 1" "4 4"; do
    # shellcheck disable=SC2086
    inline_sweep valley $jobs_shards --set "dataplane=reroute" --seeds 2
    # shellcheck disable=SC2086
    inline_sweep incast $jobs_shards --set "ecn=true" --seeds 2
    # shellcheck disable=SC2086
    inline_sweep routing_loop $jobs_shards --grid "inject=4..7gbps:4"
  done
  for scenario in valley incast routing_loop; do
    diff -r "$tsan_dir/inline_${scenario}_j1s1" \
      "$tsan_dir/inline_${scenario}_j4s4"
  done

  # Hybrid-engine equivalence leg: the fluid/packet zoom must perturb
  # neither verdicts nor determinism. The gtest byte-identity suite runs
  # under TSan (the controller's step events replay through the window
  # barrier), then a routing-loop sweep with the zoom on must be
  # byte-identical across --jobs x --shards, and its core verdict columns
  # (through pause_assertions — event counts legitimately differ, the
  # controller schedules its own steps) must match the same sweep with the
  # zoom off.
  cmake --build "$tsan_dir" --target test_hybrid -j"$(nproc)"
  "$tsan_dir/tests/test_hybrid" --gtest_filter='HybridExecutor.*'
  hy_sweep() {
    "$tsan_dir/examples/dcdl_sweep" --scenario routing_loop \
      --grid "inject=4..6gbps:2" --seeds 2 --run_ms 6 --hybrid "$1" \
      --jobs "$2" --shards "$3" --quiet --out "$4" --csv "$5"
  }
  hy_sweep risk 1 1 "$tsan_dir/hy_s1.json" "$tsan_dir/hy_s1.csv"
  hy_sweep risk 4 2 "$tsan_dir/hy_s2.json" "$tsan_dir/hy_s2.csv"
  cmp "$tsan_dir/hy_s1.json" "$tsan_dir/hy_s2.json"
  hy_sweep off 1 1 "$tsan_dir/hy_off.json" "$tsan_dir/hy_off.csv"
  cut -d, -f1-11 "$tsan_dir/hy_off.csv" > "$tsan_dir/hy_off_core.csv"
  cut -d, -f1-11 "$tsan_dir/hy_s1.csv" > "$tsan_dir/hy_risk_core.csv"
  cmp "$tsan_dir/hy_off_core.csv" "$tsan_dir/hy_risk_core.csv"

  # Probe time-series leg: the always-on dcdl::probe sampler snapshots at
  # window barriers, so its `dcdl.timeseries.v1` artifact obeys the same
  # two identity classes as the telemetry JSON — byte-identical across
  # --jobs within either engine, and across shard counts within the
  # sharded engine. dcdl_report over the same campaign directory must also
  # be a pure function of its inputs (two invocations, identical bytes).
  cmake --build "$tsan_dir" --target test_probe dcdl_report -j"$(nproc)"
  "$tsan_dir/tests/test_probe"
  ts_sweep() {
    out_dir="$tsan_dir/ts_$4"
    rm -rf "$out_dir"
    "$tsan_dir/examples/dcdl_sweep" --scenario routing_loop \
      --grid "inject=4..6gbps:2" --seeds 1 --run_ms 4 --jobs "$1" \
      --shards "$2" --quiet --trace "$out_dir" \
      --out "$out_dir/campaign.json"
  }
  ts_sweep 1 0 x j1s0
  ts_sweep 4 0 x j4s0
  ts_sweep 1 1 x j1s1
  ts_sweep 4 2 x j4s2
  cmp "$tsan_dir/ts_j1s0/run_00000.timeseries.jsonl" \
      "$tsan_dir/ts_j4s0/run_00000.timeseries.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00000.timeseries.jsonl" \
      "$tsan_dir/ts_j4s2/run_00000.timeseries.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00001.timeseries.jsonl" \
      "$tsan_dir/ts_j4s2/run_00001.timeseries.jsonl"
  "$tsan_dir/examples/dcdl_report" --dir "$tsan_dir/ts_j1s1" \
    --out "$tsan_dir/report_a.md"
  "$tsan_dir/examples/dcdl_report" --dir "$tsan_dir/ts_j1s1" \
    --out "$tsan_dir/report_b.md"
  cmp "$tsan_dir/report_a.md" "$tsan_dir/report_b.md"

  # Watch early-warning leg: dcdl::watch samples the wait-for graph and
  # pause state at the same window barriers as the probe, so its
  # `dcdl.alerts.v1` artifact obeys the same two identity classes. The
  # gtest suite (rule-engine edges, lead-time assertions, executor jobs
  # invariance) runs under TSan, then the alert streams from the probe
  # leg's sweeps above must be byte-identical across --jobs within either
  # engine and across shard counts within the sharded engine.
  cmake --build "$tsan_dir" --target test_watch -j"$(nproc)"
  "$tsan_dir/tests/test_watch"
  cmp "$tsan_dir/ts_j1s0/run_00000.alerts.jsonl" \
      "$tsan_dir/ts_j4s0/run_00000.alerts.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00000.alerts.jsonl" \
      "$tsan_dir/ts_j4s2/run_00000.alerts.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00001.alerts.jsonl" \
      "$tsan_dir/ts_j4s2/run_00001.alerts.jsonl"

  # Perf gate: the repository benchmark over every workload and seeds
  # 1..10. It fails on a failed-operation fraction above the baseline's, or
  # on a median worse than dcdlbench/baseline.json by more than the
  # metric's bound in BENCHMARK.json (gated only against a baseline from a
  # host with the same fingerprint). boundary_sweep runs with the always-on
  # probe and watch, so observability overhead is inside the gated numbers.
  python3 "$repo_root/dcdlbench/run.py" --all
fi

if [ "$sanitizers" = 1 ]; then
  "$repo_root/tools/asan.sh"
  "$repo_root/tools/tsan.sh"
fi

echo "ci.sh: all checks passed"
