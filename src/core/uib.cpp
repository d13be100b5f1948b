#include "core/uib.hpp"

namespace p4u::core {

AppliedState Uib::applied(FlowId f) const {
  // One flow-id resolution, then per-register pool hits. Each register
  // access still counts individually — the exported uib.register_reads
  // totals are part of the byte-identical report contract.
  const net::FlowHandle h = index_.find(f);
  const std::uint32_t gen = h == net::kNoFlowHandle ? 0 : index_.generation(h);
  AppliedState s;
  s.new_version = new_version_.read_at(h, gen);
  s.new_distance = new_distance_.read_at(h, gen);
  s.old_version = old_version_.read_at(h, gen);
  s.old_distance = old_distance_.read_at(h, gen);
  s.counter = counter_.read_at(h, gen);
  s.last_type = t_.read_at(h, gen) == 1 ? UpdateType::kDualLayer
                                        : UpdateType::kSingleLayer;
  s.ever_dual = t_.read_at(h, gen) == 1;
  return s;
}

void Uib::write_applied(FlowId f, const AppliedState& s) {
  const net::FlowHandle h = index_.intern(f);
  const std::uint32_t gen = index_.generation(h);
  new_version_.write_at(h, gen, s.new_version);
  new_distance_.write_at(h, gen, s.new_distance);
  old_version_.write_at(h, gen, s.old_version);
  old_distance_.write_at(h, gen, s.old_distance);
  counter_.write_at(h, gen, s.counter);
  t_.write_at(h, gen, s.last_type == UpdateType::kDualLayer ? 1 : 0);
}

const UimHeader* Uib::pending_uim(FlowId f) const {
  const net::FlowHandle h = index_.find(f);
  if (h == net::kNoFlowHandle) return nullptr;
  const PendingRow& row = pending_.get(h, index_.generation(h));
  return row.present ? &row.uim : nullptr;
}

bool Uib::offer_uim(const UimHeader& uim) {
  const net::FlowHandle h = index_.intern(uim.flow);
  PendingRow& row = pending_.row(h, index_.generation(h));
  if (row.present && row.uim.version >= uim.version) return false;
  if (!row.present) ++pending_count_;
  row.uim = uim;
  row.present = true;
  return true;
}

void Uib::drop_uim(FlowId f) {
  const net::FlowHandle h = index_.find(f);
  if (h == net::kNoFlowHandle) return;
  PendingRow& row = pending_.row(h, index_.generation(h));
  if (!row.present) return;
  row.present = false;
  row.uim = UimHeader{};
  --pending_count_;
}

}  // namespace p4u::core
