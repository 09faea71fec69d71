// The one shape every per-run scalar digest takes: an ordered list of
// (name, value) pairs. Telemetry counters, forensics cascade metrics, probe
// and watch summaries, and campaign finishers all emit it; campaign records
// serialize it in order, so the order is part of every artifact.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace dcdl {

using MetricSink = std::vector<std::pair<std::string, double>>;

}  // namespace dcdl
