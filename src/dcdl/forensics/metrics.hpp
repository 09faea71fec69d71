// Cascade metrics as the `forensics.*` metric list, so every campaign
// RunRecord (and any --metrics report) carries the forensic summary next to
// the net.* / sim.* uniform set. Computed after the measured window —
// nothing here runs on the simulation hot path.
#pragma once

#include "dcdl/common/metric_sink.hpp"
#include "dcdl/forensics/causality.hpp"

namespace dcdl::forensics {

/// One report's summary, in schema order: pause_spans (DAG nodes),
/// cascades (weakly-connected components), cascade_max_depth (deepest cause
/// chain), cascade_max_width (widest single depth level),
/// triggers.{routing_loop,host_pause,congestion}, time_to_deadlock_ms
/// (trigger assertion -> deadlock confirmation; -1 when no deadlock), and
/// fanout.{count,sum,mean} (downstream pauses each span directly induced —
/// the pause-storm fan-out).
MetricSink cascade_metrics(const CascadeReport& report);

}  // namespace dcdl::forensics
