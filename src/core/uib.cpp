#include "core/uib.hpp"

namespace p4u::core {

const Uib::Registers& Uib::read(FlowId f, std::uint64_t count) const {
  reads_ += count;
  const net::FlowHandle h = index_.find(f);
  if (h == net::kNoFlowHandle) return registers_.default_value();
  return registers_.get(h, index_.generation(h));
}

Uib::Registers& Uib::write(FlowId f, std::uint64_t count) {
  writes_ += count;
  const net::FlowHandle h = index_.intern(f);
  return registers_.row(h, index_.generation(h));
}

AppliedState Uib::applied(FlowId f) const {
  // V_n, D_n, V_o, D_o, C, and T twice (the type and the dual flag): the
  // exported uib.register_reads totals are part of the byte-identical report
  // contract.
  const Registers& r = read(f, 7);
  AppliedState s;
  s.new_version = r.new_version;
  s.new_distance = r.new_distance;
  s.old_version = r.old_version;
  s.old_distance = r.old_distance;
  s.counter = r.counter;
  s.last_type = r.t == 1 ? UpdateType::kDualLayer : UpdateType::kSingleLayer;
  s.ever_dual = r.t == 1;
  return s;
}

void Uib::assign(Registers& r, const AppliedState& s) {
  r.new_version = s.new_version;
  r.new_distance = s.new_distance;
  r.old_version = s.old_version;
  r.old_distance = s.old_distance;
  r.counter = s.counter;
  r.t = s.last_type == UpdateType::kDualLayer ? 1 : 0;
}

void Uib::write_applied(FlowId f, const AppliedState& s) {
  assign(write(f, 6), s);  // every register but flow_size and priority
}

void Uib::bring_up(FlowId f, const AppliedState& s, double size) {
  Registers& r = write(f, 7);  // the applied state and flow_size
  assign(r, s);
  r.flow_size = size;
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
