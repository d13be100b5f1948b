#include "baselines/central_controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4rt/switch_device.hpp"

namespace p4u::baseline {

namespace {

std::int64_t dlink_key(net::NodeId a, net::NodeId b) {
  return (static_cast<std::int64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}

template <typename T>
bool contains(const std::vector<T>& v, const T& x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Adds `x` to the set `v` (any order); false when it was already there.
template <typename T>
bool insert_unique(std::vector<T>& v, const T& x) {
  if (contains(v, x)) return false;
  v.push_back(x);
  return true;
}

}  // namespace

CentralController::CentralController(p4rt::ControlChannel& channel,
                                     control::Nib nib, CentralParams params)
    : RecoveringController(channel, std::move(nib), params.recovery),
      params_(params) {}

void CentralController::register_flow(const net::Flow& f,
                                      const net::Path& initial_path) {
  nib_.record_flow(f, initial_path);
  if (params_.congestion_mode) {
    for (std::size_t i = 0; i + 1 < initial_path.size(); ++i) {
      link_used_[dlink_key(initial_path[i], initial_path[i + 1])] += f.size;
    }
  }
}

CentralController::Job* CentralController::live_job(net::FlowId flow) {
  if (!std::binary_search(live_.begin(), live_.end(), flow)) return nullptr;
  return &jobs_.at(nib_, flow);
}

void CentralController::end_job(net::FlowId flow) {
  live_.erase(std::lower_bound(live_.begin(), live_.end(), flow));
}

p4rt::Version CentralController::schedule_update(net::FlowId flow,
                                                 const net::Path& new_path) {
  if (const Job* live = live_job(flow)) {
    cancel_inflight(flow, live->version, /*superseded=*/true);
  }
  const p4rt::Version version = begin_update(flow, new_path);
  Job& job = jobs_.at(nib_, flow);
  job.version = version;
  const net::Path& believed = nib_.view(flow).believed_path;
  job.old_path.assign(believed.begin(), believed.end());
  job.new_path.assign(new_path.begin(), new_path.end());
  job.updated.clear();
  job.outstanding.clear();
  job.pending.clear();
  job.released.clear();
  job.round = 0;
  // Nodes whose rule actually changes.
  for (std::size_t i = 0; i + 1 < new_path.size(); ++i) {
    const net::NodeId n = new_path[i];
    if (net::next_hop(job.old_path, n) != new_path[i + 1]) {
      job.pending.push_back(n);
    }
  }
  if (job.pending.empty()) {
    complete(flow, version);
    return version;
  }
  live_.insert(std::lower_bound(live_.begin(), live_.end(), flow), flow);
  track_update(flow, version);
  start_round();
  return version;
}

void CentralController::collect_safe(net::FlowId flow, Job& job) {
  candidates_.clear();
  for (auto it = job.new_path.rbegin(); it != job.new_path.rend(); ++it) {
    const net::NodeId n = *it;
    if (!contains(job.pending, n)) continue;
    if (!central_safe_to_update(job.old_path, job.new_path, n, job.updated,
                                candidates_)) {
      continue;
    }
    if (params_.congestion_mode) {
      const net::NodeId to = net::next_hop(job.new_path, n);
      const auto link = nib_.graph().find_link(n, to);
      const double cap = link ? nib_.graph().link(*link).capacity : 0.0;
      const double used = link_used_[dlink_key(n, to)];
      const double size = nib_.view(flow).flow.size;
      if (cap - used < size) continue;  // wait for capacity to free up
      link_used_[dlink_key(n, to)] += size;  // reserve on command issue
    }
    candidates_.push_back(n);
    round_.emplace_back(flow, n);
  }
}

void CentralController::start_round() {
  // Global round barrier ([57], §9.1): the next batch is computed only
  // after every acknowledgement of the previous one arrived, over the
  // whole dependency relationship (all flows at once, ascending flow id).
  if (global_outstanding_ > 0 || live_.empty()) return;
  channel_.occupy(kDependencyRecompute);
  round_.clear();
  for (const net::FlowId flow : live_) collect_safe(flow, jobs_.at(nib_, flow));
  if (round_.empty()) return;  // stuck (capacity deadlock) or nothing to do
  ++rounds_;
  for (const auto& [flow, n] : round_) {
    Job& job = jobs_.at(nib_, flow);
    ++job.round;
    job.pending.erase(std::find(job.pending.begin(), job.pending.end(), n));
    job.outstanding.insert(
        std::lower_bound(job.outstanding.begin(), job.outstanding.end(), n),
        n);
    ++global_outstanding_;
    send_install(flow, job, n);
  }
}

void CentralController::send_install(net::FlowId flow, const Job& job,
                                     net::NodeId n) {
  p4rt::InstallCmdHeader cmd;
  cmd.flow = flow;
  cmd.version = job.version;
  cmd.round = static_cast<std::int32_t>(rounds_);
  cmd.egress_port = nib_.graph().port_of(n, net::next_hop(job.new_path, n));
  cmd.flow_size = nib_.view(flow).flow.size;
  channel_.send_to_switch(n, p4rt::Packet{cmd});
}

void CentralController::handle_from_switch(net::NodeId from,
                                           const p4rt::Packet& pkt) {
  if (!pkt.is<p4rt::InstallAckHeader>()) return;
  const auto& ack = pkt.as<p4rt::InstallAckHeader>();
  Job* live = live_job(ack.flow);
  if (live == nullptr || live->version != ack.version) return;
  Job& job = *live;
  const auto acked =
      std::lower_bound(job.outstanding.begin(), job.outstanding.end(), from);
  if (acked == job.outstanding.end() || *acked != from) return;
  job.outstanding.erase(acked);
  if (global_outstanding_ > 0) --global_outstanding_;
  job.updated.push_back(from);
  if (params_.congestion_mode) {
    // The flow left its old outgoing link at `from`: release capacity.
    const net::NodeId old_to = net::next_hop(job.old_path, from);
    if (old_to != net::kNoNode &&
        insert_unique(job.released, dlink_key(from, old_to))) {
      link_used_[dlink_key(from, old_to)] -= nib_.view(ack.flow).flow.size;
    }
  }
  if (job.pending.empty() && job.outstanding.empty()) {
    // The row keeps its paths after the job ends; only complete() below
    // may start the flow's next job in it.
    const p4rt::Version version = job.version;
    const net::Path& new_path = job.new_path;
    const net::Path& old_path = job.old_path;
    std::vector<std::int64_t>& released = job.released;
    end_job(ack.flow);
    if (params_.congestion_mode) {
      // Release stale old-path links the ack path never freed (nodes whose
      // rules did not change but no longer carry this flow).
      for (std::size_t i = 0; i + 1 < old_path.size(); ++i) {
        const auto key = dlink_key(old_path[i], old_path[i + 1]);
        bool on_new = false;
        for (std::size_t j = 0; j + 1 < new_path.size(); ++j) {
          if (new_path[j] == old_path[i] &&
              new_path[j + 1] == old_path[i + 1]) {
            on_new = true;
            break;
          }
        }
        if (!on_new && insert_unique(released, key)) {
          link_used_[key] -= nib_.view(ack.flow).flow.size;
        }
      }
    }
    // Old-path cleanup: remove stale rules on nodes the flow left behind.
    for (net::NodeId n : old_path) {
      if (std::find(new_path.begin(), new_path.end(), n) != new_path.end()) {
        continue;
      }
      p4rt::InstallCmdHeader cmd;
      cmd.flow = ack.flow;
      cmd.version = version;
      cmd.remove = true;
      channel_.send_to_switch(n, p4rt::Packet{cmd});
    }
    // After the cleanup sends: a settle handler may issue the next update.
    complete(ack.flow, version);
  }
  start_round();
}

void CentralController::resend(net::FlowId flow, p4rt::Version version) {
  // A dropped job is untracked with it (cancel_inflight), so the tracked
  // version's job is live.
  const Job* live = live_job(flow);
  if (live == nullptr) {
    throw std::out_of_range("CentralController::resend: no live job");
  }
  const Job& job = *live;
  (void)version;
  if (job.outstanding.empty()) {
    // No command in flight but the job has not finished: the barrier is
    // stuck (lost round, capacity deadlock) — try to issue the next round.
    start_round();
  } else {
    // Re-send every unacked command; the switch re-installs idempotently
    // and the controller ignores duplicate acks.
    for (const net::NodeId n : job.outstanding) send_install(flow, job, n);
  }
}

void CentralController::cancel_inflight(net::FlowId flow,
                                        p4rt::Version version,
                                        bool superseded) {
  (void)superseded;
  Job* live = live_job(flow);
  if (live == nullptr || live->version != version) return;
  Job& job = *live;
  global_outstanding_ -= job.outstanding.size();
  if (params_.congestion_mode) {
    // Release the reservations of commands that were never acknowledged.
    // (A command whose ack was lost did land; the believed ledger drifts —
    // the same staleness every centralized scheduler lives with.)
    for (const net::NodeId n : job.outstanding) {
      const net::NodeId to = net::next_hop(job.new_path, n);
      if (to != net::kNoNode) {
        link_used_[dlink_key(n, to)] -= nib_.view(flow).flow.size;
      }
    }
  }
  end_job(flow);
  untrack(flow);
}

void CentralController::pump_next(std::span<const net::FlowId> settled) {
  (void)settled;
  start_round();
}

void CentralController::redeploy(net::FlowId flow, net::NodeId node) {
  const control::FlowView& view = nib_.view(flow);
  const net::NodeId succ = net::next_hop(view.believed_path, node);
  p4rt::InstallCmdHeader cmd;
  cmd.flow = flow;
  cmd.version = view.version;
  cmd.egress_port = succ == net::kNoNode ? p4rt::SwitchDevice::kLocalPort
                                         : nib_.graph().port_of(node, succ);
  cmd.flow_size = view.flow.size;
  channel_.send_to_switch(node, p4rt::Packet{cmd});
}

}  // namespace p4u::baseline
