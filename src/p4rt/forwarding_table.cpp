#include "p4rt/forwarding_table.hpp"

#include <utility>

namespace p4u::p4rt {

const ForwardingTable::Row* ForwardingTable::row(FlowId flow) const {
  const net::FlowHandle h = index_.find(flow);
  return h == net::kNoFlowHandle ? nullptr : &rows_[h];
}

ForwardingTable::Hop* ForwardingTable::find(FlowId flow, NodeId node) {
  return const_cast<Hop*>(std::as_const(*this).find(flow, node));
}

const ForwardingTable::Hop* ForwardingTable::find(FlowId flow,
                                                  NodeId node) const {
  const Row* r = row(flow);
  return r == nullptr ? nullptr : hop_in(*r, node);
}

net::FlowHandle ForwardingTable::intern(FlowId flow) {
  if (flow == last_flow_ && last_handle_ != net::kNoFlowHandle) {
    return last_handle_;
  }
  const net::FlowHandle h = index_.intern(flow);
  while (rows_.size() <= h) rows_.append();
  last_flow_ = flow;
  last_handle_ = h;
  return h;
}

void ForwardingTable::release(net::FlowHandle h) {
  if (h == last_handle_) last_handle_ = net::kNoFlowHandle;
  index_.release(index_.id_of(h));
}

ForwardingTable::Hop& ForwardingTable::hop(FlowId flow, NodeId node) {
  Row& r = rows_[intern(flow)];
  for (Hop& h : r) {
    if (h.node == node) return h;
  }
  Hop& h = r.emplace_back();
  h.node = node;
  return h;
}

void ForwardingTable::remove(net::FlowHandle h, NodeId node) {
  Row& r = rows_[h];
  for (Hop& hop : r) {
    if (hop.node != node) continue;
    hop = r.back();
    r.pop_back();
    if (r.empty()) release(h);
    return;
  }
}

void ForwardingTable::drop(FlowId flow, NodeId node) {
  const net::FlowHandle h = index_.find(flow);
  if (h != net::kNoFlowHandle) remove(h, node);
}

void ForwardingTable::drop_node(NodeId node) {
  // Releasing a handle changes only that handle's slot, so the ascending
  // walk over the slots stays valid.
  for (net::FlowHandle h = 0; h < index_.slot_count(); ++h) {
    if (index_.live(h)) remove(h, node);
  }
}

}  // namespace p4u::p4rt
