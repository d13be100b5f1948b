#include "verify/verifier.hpp"

#include <algorithm>
#include <sstream>

namespace p4u::verify {

namespace {

Verdict refuse(const FlowPlan& plan, const std::string& why) {
  Verdict v;
  v.kind = VerdictKind::kUnknown;
  v.reason = why;
  v.stats.touched = plan.touched.size();
  return v;
}

void render_nodes(std::ostringstream& os,
                  const std::vector<net::NodeId>& nodes) {
  os << '[';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << ',';
    os << nodes[i];
  }
  os << ']';
}

int severity(VerdictKind k) {
  switch (k) {
    case VerdictKind::kSafe:    return 0;
    case VerdictKind::kUnknown: return 1;
    case VerdictKind::kUnsafe:  return 2;
  }
  return 1;
}

}  // namespace

Verdict verify_plan(const FlowPlan& plan, LatticeWorkspace& ws,
                    const VerifyOptions& opt) {
  const auto n = static_cast<std::int32_t>(plan.touched.size());
  std::vector<net::NodeId>& seen = ws.seen_;
  seen.clear();
  for (const TouchedNode& t : plan.touched) {
    if (t.node == net::kNoNode) {
      return refuse(plan, "touched entry without a node");
    }
    seen.push_back(t.node);
    for (std::int32_t p : t.prereqs) {
      if (p < 0 || p >= n) return refuse(plan, "prereq index out of range");
    }
    if (t.dl_succ >= n) return refuse(plan, "dl_succ index out of range");
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return refuse(plan, "duplicate touched node");
  }
  for (const auto& round : plan.rounds) {
    for (std::int32_t i : round) {
      if (i < 0 || i >= n) return refuse(plan, "round index out of range");
    }
  }
  if (plan.sources.empty()) {
    return refuse(plan, "plan has no traffic sources");
  }
  for (net::NodeId s : plan.sources) {
    if (s == net::kNoNode) return refuse(plan, "invalid traffic source");
  }
  return analyze_lattice(plan, ws, opt);
}

Verdict verify_plan(const FlowPlan& plan, const VerifyOptions& opt) {
  LatticeWorkspace ws;
  return verify_plan(plan, ws, opt);
}

BatchResult verify_batch(const std::vector<FlowPlan>& plans,
                         const VerifyOptions& opt) {
  BatchResult out;
  out.overall.kind = VerdictKind::kSafe;
  LatticeWorkspace ws;
  for (const FlowPlan& plan : plans) {
    Verdict v = verify_plan(plan, ws, opt);
    out.overall.stats.touched += v.stats.touched;
    out.overall.stats.lattice_size += v.stats.lattice_size;
    out.overall.stats.states_enumerated += v.stats.states_enumerated;
    out.overall.stats.states_pruned += v.stats.states_pruned;
    out.overall.stats.walks += v.stats.walks;
    if (severity(v.kind) > severity(out.overall.kind)) {
      out.overall.kind = v.kind;
      out.overall.reason = v.reason;
      if (v.witness && !out.overall.witness) out.overall.witness = v.witness;
    } else if (v.witness && !out.overall.witness) {
      out.overall.witness = v.witness;
    }
    out.per_flow.emplace_back(plan.flow, std::move(v));
  }
  return out;
}

std::string witness_json(const Witness& w) {
  std::ostringstream os;
  os << "{\"flow\":" << w.flow << ",\"kind\":\""
     << (w.loop ? "loop" : "blackhole") << "\",\"applied\":";
  render_nodes(os, w.applied);
  os << ",\"walk\":";
  render_nodes(os, w.walk);
  os << ",\"offender\":" << w.offender << '}';
  return os.str();
}

std::string verdict_json(const Verdict& v) {
  std::ostringstream os;
  os << "{\"verdict\":\"" << to_string(v.kind) << '"';
  if (!v.reason.empty()) os << ",\"reason\":\"" << v.reason << '"';
  if (v.witness) os << ",\"witness\":" << witness_json(*v.witness);
  os << ",\"touched\":" << v.stats.touched
     << ",\"lattice_size\":" << v.stats.lattice_size
     << ",\"states_enumerated\":" << v.stats.states_enumerated
     << ",\"states_pruned\":" << v.stats.states_pruned
     << ",\"walks\":" << v.stats.walks << '}';
  return os.str();
}

}  // namespace p4u::verify
