// dcdl::telemetry: flight-recorder ring semantics, the per-run metric set
// and its campaign schema, exporter format guarantees, and the deadlock
// post-mortem path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dcdl/analysis/deadlock.hpp"
#include "dcdl/campaign/campaign.hpp"
#include "dcdl/scenarios/scenario.hpp"
#include "dcdl/stats/pause_log.hpp"
#include "dcdl/telemetry/telemetry.hpp"

namespace dcdl::telemetry {
namespace {

using namespace dcdl::literals;
using namespace dcdl::scenarios;

// ------------------------------------------------------------ ring buffer

TraceRecord make_record(std::int64_t t, std::uint32_t node) {
  TraceRecord r{};
  r.t_ps = t;
  r.node = node;
  r.kind = RecordKind::kTxStart;
  return r;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
  EXPECT_EQ(FlightRecorder(1024).capacity(), 1024u);
}

TEST(FlightRecorderTest, SnapshotBeforeWrapIsInsertionOrder) {
  FlightRecorder rec(8);
  for (int i = 0; i < 5; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.size(), 5u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(snap[i].t_ps, i);
}

TEST(FlightRecorderTest, WrapKeepsNewestWindowOldestFirst) {
  FlightRecorder rec(8);
  for (int i = 0; i < 21; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 21u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, 13 + i);

  const auto last3 = rec.last(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3[0].t_ps, 18);
  EXPECT_EQ(last3[2].t_ps, 20);
  EXPECT_EQ(rec.last(100).size(), 8u) << "last(n) clamps to size()";
}

TEST(FlightRecorderTest, FillToExactlyCapacityKeepsEveryRecord) {
  // Wrap-around boundary, part 1: total == capacity is the last state with
  // no loss. Every record present, oldest first, no duplicates.
  FlightRecorder rec(8);
  ASSERT_EQ(rec.capacity(), 8u);
  for (int i = 0; i < 8; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, i);
}

TEST(FlightRecorderTest, CapacityPlusOneDropsExactlyTheOldest) {
  // Wrap-around boundary, part 2: one more record must evict record 0 and
  // nothing else — still oldest-first, no duplicate, no gap.
  FlightRecorder rec(8);
  for (int i = 0; i < 9; ++i) rec.record(make_record(i, 0));
  EXPECT_EQ(rec.total_recorded(), 9u);
  EXPECT_EQ(rec.size(), 8u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(snap[i].t_ps, 1 + i);
}

TEST(FlightRecorderTest, ClearResets) {
  FlightRecorder rec(4);
  rec.record(make_record(1, 0));
  rec.clear();
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorderTest, AttachOptionsMaskCategories) {
  // Same deterministic run twice: a recorder masked to PFC-only must see
  // strictly fewer records, and only pause kinds.
  for (const bool pfc_only : {false, true}) {
    RoutingLoopParams p;
    p.inject = Rate::gbps(7);  // above the Eq. 3 boundary: plenty of PFC
    Scenario s = make_routing_loop(p);
    FlightRecorder rec(1u << 14);
    FlightRecorder::AttachOptions opts;
    if (pfc_only) {
      opts.tx_start = opts.delivered = opts.dropped = false;
      opts.cnp = opts.queue_bytes = false;
    }
    rec.attach(*s.net, opts);
    s.sim->run_until(2_ms);
    ASSERT_GT(rec.total_recorded(), 0u);
    if (pfc_only) {
      for (const TraceRecord& r : rec.snapshot()) {
        EXPECT_TRUE(r.kind == RecordKind::kPfcXoff ||
                    r.kind == RecordKind::kPfcXon);
      }
    }
  }
}

// --------------------------------------------------------------- metrics

/// Value of `name` in an ordered metric list; `fallback` when absent.
double value_of(const MetricSink& metrics, const std::string& name,
                double fallback = 0) {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return fallback;
}

TEST(RunTelemetryTest, EveryDropReasonRoutesToItsOwnCounter) {
  // Regression: the dropped-hook closure once captured only four of the
  // five per-reason counters, so kDataplaneReset drops incremented the
  // wrong one — net.pfc_xoff_total. Fire one drop of every reason and check
  // each counter reads exactly 1 and the pfc counter stays 0.
  RoutingLoopParams p;
  Scenario s = make_routing_loop(p);
  RunTelemetry telem(*s.net);
  Packet pkt{};
  for (int r = 0; r < kNumDropReasons; ++r) {
    s.net->trace().dropped(Time::zero(), pkt, NodeId{0},
                           static_cast<DropReason>(r));
  }
  const RunCounters& c = telem.counters();
  for (int r = 0; r < kNumDropReasons; ++r) {
    EXPECT_EQ(c.dropped[r], 1u)
        << "reason " << to_string(static_cast<DropReason>(r));
  }
  EXPECT_EQ(c.pfc_xoff, 0u)
      << "a drop must never bleed into the pfc_xoff counter";
}

TEST(RunTelemetryTest, CountsMatchIndependentObservers) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  stats::PauseEventLog pauses(*s.net);
  RunTelemetry telem(*s.net);
  s.sim->run_until(3_ms);

  std::uint64_t xoff = 0, xon = 0;
  for (const auto& e : pauses.events()) (e.paused ? xoff : xon) += 1;
  EXPECT_EQ(telem.counters().pfc_xoff, xoff);
  EXPECT_EQ(telem.counters().pfc_xon, xon);

  const auto snap = telem.snapshot();
  EXPECT_DOUBLE_EQ(value_of(snap, "sim.events_executed"),
                   static_cast<double>(s.sim->events_executed()));
  EXPECT_GT(value_of(snap, "net.tx_start_total"), 0);
  EXPECT_GT(value_of(snap, "net.dropped_packets_total.ttl_expired"), 0)
      << "the routing loop drains by TTL expiry";
}

TEST(RunTelemetryTest, SnapshotIsDeterministicAcrossRuns) {
  auto run = [] {
    RoutingLoopParams p;
    p.inject = Rate::gbps(6);
    Scenario s = make_routing_loop(p);
    RunTelemetry telem(*s.net);
    s.sim->run_until(2_ms);
    return telem.snapshot();
  };
  EXPECT_EQ(run(), run());
}

/// Runs `scenario` once through the campaign executor with a finisher that
/// samples independent observers at the same stop instant as the telemetry
/// snapshot: the pause log, the devices' drop counters, and the destination
/// hosts' sink statistics (as obs.* entries of RunRecord::metrics).
campaign::RunRecord run_observed(const std::string& scenario,
                                 const std::string& sets) {
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  ScenarioDef def = reg.at(scenario);
  def.instrument = [inner = def.instrument](Scenario& s,
                                            const ParamMap& pm) {
    ScenarioDef::Finisher finish_inner;
    if (inner) finish_inner = inner(s, pm);
    auto pauses = std::make_shared<stats::PauseEventLog>(*s.net);
    return ScenarioDef::Finisher(
        [finish_inner, pauses, &s](const RunRecord& rec, MetricSink& out) {
          if (finish_inner) finish_inner(rec, out);
          double xoff = 0, xon = 0;
          for (const auto& e : pauses->events()) (e.paused ? xoff : xon) += 1;
          out.emplace_back("obs.xoff", xoff);
          out.emplace_back("obs.xon", xon);
          for (int r = 0; r < kNumDropReasons; ++r) {
            const auto reason = static_cast<DropReason>(r);
            out.emplace_back(std::string("obs.drops.") + to_string(reason),
                             static_cast<double>(s.net->drops(reason)));
          }
          double packets = 0, bytes = 0;
          for (const FlowSpec& f : s.flows) {
            const Host& dst = s.net->host_at(f.dst_host);
            packets += static_cast<double>(dst.delivered_packets(f.id));
            bytes += static_cast<double>(dst.delivered_bytes(f.id));
          }
          out.emplace_back("obs.delivered_packets", packets);
          out.emplace_back("obs.delivered_bytes", bytes);
        });
  };
  reg.replace(std::move(def));

  SweepSpec spec;
  spec.scenario = scenario;
  apply_sets(spec.base, sets);
  spec.run_for = 3_ms;
  const CampaignResult result = CampaignExecutor(reg, {}).run(expand(spec));
  EXPECT_EQ(result.records.size(), 1u);
  return result.records.front();
}

TEST(RunTelemetryTest, CampaignTelemetrySchemaIsPinned) {
  // The exact ordered key list of RunRecord::telemetry is part of the
  // campaign JSON schema: the net.* / sim.* uniform set, then forensics.*.
  // Every count must equal an independent observer sampled at the same
  // stop instant. The routing loop pauses and drops by TTL expiry but
  // delivers nothing; the Fig. 4 four-switch run delivers and deadlocks.
  const std::vector<std::string> expected = {
      "net.pfc_xoff_total",
      "net.pfc_xon_total",
      "net.tx_start_total",
      "net.delivered_packets_total",
      "net.delivered_bytes_total",
      "net.cnp_total",
      "net.dropped_packets_total.ttl_expired",
      "net.dropped_packets_total.no_route",
      "net.dropped_packets_total.buffer_overflow",
      "net.dropped_packets_total.watchdog_reset",
      "net.dropped_packets_total.dataplane_reset",
      "net.delivered_packet_bytes.count",
      "net.delivered_packet_bytes.sum",
      "net.delivered_packet_bytes.mean",
      "net.queued_bytes",
      "sim.events_executed",
      "sim.events_scheduled",
      "sim.events_cancelled",
      "sim.events_pending",
      "sim.slab_slots",
      "sim.slab_grows",
      "sim.heap_high_water",
      "forensics.pause_spans",
      "forensics.cascades",
      "forensics.cascade_max_depth",
      "forensics.cascade_max_width",
      "forensics.triggers.routing_loop",
      "forensics.triggers.host_pause",
      "forensics.triggers.congestion",
      "forensics.time_to_deadlock_ms",
      "forensics.fanout.count",
      "forensics.fanout.sum",
      "forensics.fanout.mean",
  };
  const campaign::RunRecord loop =
      run_observed("routing_loop", "inject=7");
  const campaign::RunRecord fig4 =
      run_observed("four_switch", "with_flow3=true");
  for (const campaign::RunRecord* rec : {&loop, &fig4}) {
    SCOPED_TRACE(rec->scenario);
    ASSERT_EQ(rec->status, campaign::RunStatus::kOk) << rec->error;
    std::vector<std::string> keys;
    for (const auto& kv : rec->telemetry) keys.push_back(kv.first);
    EXPECT_EQ(keys, expected);
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size())
        << "no metric name may appear twice in a record";

    const auto& t = rec->telemetry;
    const auto& m = rec->metrics;
    EXPECT_GT(value_of(m, "obs.xoff"), 0);
    EXPECT_EQ(value_of(t, "net.pfc_xoff_total", -1), value_of(m, "obs.xoff"));
    EXPECT_EQ(value_of(t, "net.pfc_xon_total", -1), value_of(m, "obs.xon"));
    for (int r = 0; r < kNumDropReasons; ++r) {
      const std::string reason = to_string(static_cast<DropReason>(r));
      EXPECT_EQ(value_of(t, "net.dropped_packets_total." + reason, -1),
                value_of(m, "obs.drops." + reason, -2))
          << reason;
    }
    const double packets = value_of(m, "obs.delivered_packets", -2);
    const double bytes = value_of(m, "obs.delivered_bytes", -2);
    EXPECT_EQ(value_of(t, "net.delivered_packets_total", -1), packets);
    EXPECT_EQ(value_of(t, "net.delivered_bytes_total", -1), bytes);
    EXPECT_EQ(value_of(t, "net.delivered_packet_bytes.count", -1), packets);
    EXPECT_EQ(value_of(t, "net.delivered_packet_bytes.sum", -1), bytes);
    EXPECT_EQ(value_of(t, "net.delivered_packet_bytes.mean", -1),
              packets > 0 ? bytes / packets : 0);
    EXPECT_GT(value_of(t, "forensics.pause_spans"), 0);
    EXPECT_EQ(value_of(t, "forensics.fanout.count", -1),
              value_of(t, "forensics.pause_spans", -2))
        << "one fan-out observation per pause span";
  }
  EXPECT_GT(value_of(loop.metrics, "obs.drops.ttl_expired"), 0)
      << "the routing loop drains by TTL expiry";
  EXPECT_EQ(value_of(loop.metrics, "obs.delivered_packets", -1), 0)
      << "nothing leaves the loop";
  EXPECT_GT(value_of(fig4.metrics, "obs.delivered_packets"), 0);
  EXPECT_GT(value_of(fig4.telemetry, "forensics.time_to_deadlock_ms", -1), 0)
      << "the Fig. 4 run deadlocks";
}

// -------------------------------------------------------------- exporters

std::vector<TraceRecord> fig2_records(Scenario& s, FlightRecorder& rec) {
  rec.attach(*s.net);
  s.sim->run_until(2_ms);
  return rec.snapshot();
}

TEST(PerfettoExportTest, SpansNestAndCountersMatchRecords) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  const std::string json = to_perfetto_json(*s.topo, records);

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"PFC pause\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);

  // Every "B" has a matching later "E" (the exporter closes open spans at
  // the window end): equal counts is the cheap proxy chrome://tracing
  // enforces per track.
  std::size_t b = 0, e = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++b; pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++e; pos += 8;
  }
  EXPECT_GT(b, 0u);
  EXPECT_EQ(b, e);

  // Deterministic: the same record stream renders to the same bytes.
  EXPECT_EQ(json, to_perfetto_json(*s.topo, records));
}

TEST(PerfettoExportTest, DropAndResumeInstantsAreEmittedAndDeterministic) {
  // The routing loop produces both TTL-expiry drops and PFC resumes; the
  // export must carry an instant marker for each, and stay byte-identical
  // across renders (the determinism contract covers the instant paths too).
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  bool saw_drop = false, saw_xon = false;
  for (const TraceRecord& r : records) {
    saw_drop |= r.kind == RecordKind::kDropped;
    saw_xon |= r.kind == RecordKind::kPfcXon;
  }
  ASSERT_TRUE(saw_drop) << "the loop must age packets out by TTL";
  ASSERT_TRUE(saw_xon);

  const std::string json = to_perfetto_json(*s.topo, records);
  EXPECT_NE(json.find("\"drop ttl_expired\""), std::string::npos);
  EXPECT_NE(json.find("\"pfc resume\""), std::string::npos);
  EXPECT_EQ(json, to_perfetto_json(*s.topo, records));

  // Both families are opt-out.
  PerfettoOptions off;
  off.drop_instants = false;
  off.xon_instants = false;
  const std::string bare = to_perfetto_json(*s.topo, records, off);
  EXPECT_EQ(bare.find("\"drop ttl_expired\""), std::string::npos);
  EXPECT_EQ(bare.find("\"pfc resume\""), std::string::npos);
}

TEST(JsonlExportTest, TopologyHeaderIsAdditive) {
  // The topology-bearing overload embeds nodes+links in the header line;
  // the record lines are identical to the bare format.
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  const std::string bare = to_jsonl(records);
  const std::string with_topo = to_jsonl(*s.topo, records);

  const std::string header = with_topo.substr(0, with_topo.find('\n'));
  EXPECT_NE(header.find("\"topology\":{"), std::string::npos);
  EXPECT_NE(header.find("\"links\":["), std::string::npos);
  EXPECT_EQ(bare.substr(bare.find('\n')),
            with_topo.substr(with_topo.find('\n')))
      << "record lines must not change when the header grows";
}

TEST(JsonlExportTest, HeaderAndRecordCount) {
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  const auto records = fig2_records(s, rec);
  const std::string jsonl = to_jsonl(records);

  const std::string header = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_NE(header.find("\"schema\":\"dcdl.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(header.find("\"record_count\":" +
                        std::to_string(records.size())),
            std::string::npos);
  const std::size_t lines =
      static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
  EXPECT_EQ(lines, records.size() + 1);  // header + one line per record
}

TEST(PostMortemTest, ConfirmedDeadlockDumpNamesCycleAndPauseEvents) {
  // Fig. 2 above the deadlock boundary: the monitor confirms a cycle, the
  // callback snapshots the recorder, and the dump must carry (a) the cycle
  // queues in its header and (b) the pause assertions that closed it.
  RoutingLoopParams p;
  p.inject = Rate::gbps(7);
  Scenario s = make_routing_loop(p);
  FlightRecorder rec;
  rec.attach(*s.net);
  analysis::DeadlockMonitor monitor(*s.net, Time{50'000'000}, 1_ms);
  std::string dump;
  monitor.set_on_confirmed([&](const analysis::DeadlockMonitor& m) {
    dump = post_mortem_jsonl(rec, m.cycle(), *m.detected_at(), 1024);
  });
  monitor.start(Time::zero(), 20_ms);
  s.sim->run_until(20_ms);

  ASSERT_TRUE(monitor.deadlocked());
  ASSERT_FALSE(dump.empty()) << "on_confirmed must have fired";

  const std::string header = dump.substr(0, dump.find('\n'));
  EXPECT_NE(header.find("\"post_mortem\":true"), std::string::npos);
  EXPECT_NE(header.find("\"cycle\":["), std::string::npos);
  for (const auto& q : monitor.cycle()) {
    const std::string entry = "{\"node\":" + std::to_string(q.node) +
                              ",\"port\":" + std::to_string(q.port) +
                              ",\"cls\":" + std::to_string(q.cls) + "}";
    EXPECT_NE(header.find(entry), std::string::npos)
        << "cycle queue missing from header: " << entry;
  }
  EXPECT_NE(dump.find("\"kind\":\"pfc_xoff\""), std::string::npos)
      << "the window must contain the pause assertions that closed the "
         "cycle";
}

TEST(PostMortemTest, ExecutorWritesIdenticalRecordAcrossJobs) {
  // The campaign integration end-to-end knob: telemetry embedded in the
  // v2 record depends only on the spec, never on --jobs or interleaving.
  // (File outputs are exercised by the CLI; here we check the record.)
  using namespace dcdl::campaign;
  ScenarioRegistry reg;
  register_builtin_scenarios(reg);
  SweepSpec spec;
  spec.scenario = "routing_loop";
  spec.axes = parse_grid("inject=4..7gbps:2");
  spec.seeds_per_cell = 1;
  spec.run_for = 2_ms;
  spec.drain_grace = 10_ms;
  const std::vector<RunSpec> runs = expand(spec);

  ExecutorOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  const CampaignResult a = CampaignExecutor(reg, one).run(runs);
  const CampaignResult b = CampaignExecutor(reg, four).run(runs);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].telemetry, b.records[i].telemetry);
    EXPECT_FALSE(a.records[i].telemetry.empty());
  }
}

// ------------------------------------------------------------ POD record

TEST(TraceRecordTest, LayoutIsPinned) {
  // The static_asserts in record.hpp are the real gate; this documents the
  // numbers where a human will read them.
  EXPECT_EQ(sizeof(TraceRecord), 32u);
  EXPECT_TRUE(std::is_trivially_copyable_v<TraceRecord>);
  EXPECT_EQ(std::string(to_string(RecordKind::kPfcXoff)), "pfc_xoff");
  EXPECT_EQ(std::string(to_string(RecordKind::kQueueBytes)), "queue_bytes");
}

}  // namespace
}  // namespace dcdl::telemetry
