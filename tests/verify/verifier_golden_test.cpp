// Golden pins for the static update-plan verifier (DESIGN.md §12).
//
// Each family below folds the JSON rendering of every verdict it produces
// (kind, refusal reason, witness walk and applied set, lattice statistics)
// into one FNV-1a-64 digest. The families cover every plan builder and
// discipline: bench/verify's case table, every edge-to-edge reroute on
// fat-tree(8), seeded misinformed-NIB triples that make several disciplines
// Unsafe, destination-tree waves, the verifier's refusals, and hand-built
// plans at the edges of the lattice engine's node lookup (duplicate nodes,
// next hops and sources that name no plan node).
//
// The digests must never be re-pinned to make a verifier change pass: a
// mismatch means a verdict, a witness or a statistic changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "control/dest_tree.hpp"
#include "harness/static_check.hpp"
#include "net/fattree.hpp"
#include "net/paths.hpp"
#include "net/topologies.hpp"
#include "sim/random.hpp"
#include "verify/lattice.hpp"
#include "verify/plan.hpp"
#include "verify/verifier.hpp"

namespace p4u::verify {
namespace {

using harness::StaticCheckCase;
using harness::SystemKind;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Running digest of one family's verdicts.
struct Digest {
  std::uint64_t h = kFnvOffset;
  std::uint64_t verdicts = 0;
  std::uint64_t unsafe = 0;

  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
    h ^= '\n';
    h *= kFnvPrime;
  }
  void add(const Verdict& v) {
    add(verdict_json(v));
    ++verdicts;
    if (v.unsafe()) ++unsafe;
  }
};

constexpr SystemKind kSystems[] = {SystemKind::kP4Update,
                                   SystemKind::kEzSegway,
                                   SystemKind::kCentral};

// --- bench/verify's case families -----------------------------------------

std::vector<StaticCheckCase> fig2_cases(SystemKind system) {
  StaticCheckCase c;
  c.system = system;
  c.flow = net::flow_id_of(0, 4);
  c.believed_old = {0, 1, 2, 4};
  c.actual_from = {0, 1, 2, 3, 4};
  c.new_path = {0, 3, 1, 2, 4};
  return {c};
}

std::vector<StaticCheckCase> fig4_cases(SystemKind system) {
  StaticCheckCase c;
  c.system = system;
  c.flow = net::flow_id_of(0, 5);
  c.believed_old = {0, 1, 2, 3, 4, 5};
  c.new_path = {0, 2, 1, 4, 3, 5};
  return {c};
}

std::vector<StaticCheckCase> mc_cases(SystemKind system) {
  StaticCheckCase a;
  a.system = system;
  a.flow = net::flow_id_of(0, 2);
  a.believed_old = {0, 1, 2};
  a.new_path = {0, 2};
  StaticCheckCase b;
  b.system = system;
  b.flow = net::flow_id_of(2, 0);
  b.believed_old = {2, 1, 0};
  b.new_path = {2, 0};
  return {a, b};
}

/// bench/verify's fat-tree family: shortest -> 2nd-shortest reroutes in its
/// pair-index order.
std::vector<StaticCheckCase> fattree_cases(const net::Graph& g,
                                           const std::vector<net::NodeId>& edge,
                                           SystemKind system,
                                           std::size_t n_pairs) {
  std::vector<StaticCheckCase> out;
  const std::size_t e = edge.size();
  for (std::size_t i = 0; i < e * e && out.size() < n_pairs; ++i) {
    const net::NodeId src = edge[i % e];
    const net::NodeId dst = edge[(i / e + i + 1) % e];
    if (src == dst) continue;
    const auto paths = net::k_shortest_paths(g, src, dst, 2);
    if (paths.size() < 2) continue;
    StaticCheckCase c;
    c.system = system;
    c.flow = net::flow_id_of(src, dst);
    c.believed_old = paths[0];
    c.new_path = paths[1];
    out.push_back(std::move(c));
  }
  return out;
}

/// One bench row: the batch verdict and every per-flow verdict.
void add_batch(Digest& d, const std::vector<StaticCheckCase>& cases) {
  std::vector<FlowPlan> plans;
  for (const StaticCheckCase& c : cases) {
    plans.push_back(harness::build_static_plan(c));
  }
  const BatchResult r = verify_batch(plans);
  d.add(r.overall);
  for (const auto& [flow, v] : r.per_flow) {
    d.add(std::to_string(flow));
    d.add(v);
  }
}

// --- the other families ----------------------------------------------------

/// The five ways a reroute is planned: P4Update with the §7.5 choice, forced
/// SL, forced DL, ez-Segway and Central.
enum Planner { kP4uAuto, kP4uSl, kP4uDl, kEz, kCentral, kPlannerCount };

FlowPlan plan_with(Planner p, const PlanInputs& in) {
  switch (p) {
    case kP4uAuto: return plan_p4update(in);
    case kP4uSl: return plan_p4update(in, 5, p4rt::UpdateType::kSingleLayer);
    case kP4uDl: return plan_p4update(in, 5, p4rt::UpdateType::kDualLayer);
    case kEz: return plan_ezsegway(in);
    case kCentral: return plan_central(in);
    case kPlannerCount: break;
  }
  return plan_p4update(in);
}

/// A small connected graph: a ring of `n` nodes plus seeded chords.
net::Graph ring_with_chords(sim::Rng& rng, int n, int chords) {
  net::Graph g;
  for (int i = 0; i < n; ++i) g.add_node("v" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    g.add_link(i, (i + 1) % n, sim::milliseconds(1));
  }
  for (int c = 0; c < chords; ++c) {
    const auto a = static_cast<net::NodeId>(rng.uniform(n));
    const auto b = static_cast<net::NodeId>(rng.uniform(n));
    if (a == b || g.find_link(a, b)) continue;
    g.add_link(a, b, sim::milliseconds(1));
  }
  return g;
}

/// A straight line 0 - 1 - ... - (n-1).
net::Path line(int n) {
  net::Path p;
  for (int i = 0; i < n; ++i) p.push_back(i);
  return p;
}

TEST(VerifierGolden, BenchVerifyFamilies) {
  const net::FatTree ft4 = net::fattree_topology(4);
  const net::FatTree ft8 = net::fattree_topology(8);
  Digest fig2, fig4, mc, fattree;
  for (SystemKind s : kSystems) {
    add_batch(fig2, fig2_cases(s));
    add_batch(fig4, fig4_cases(s));
    add_batch(mc, mc_cases(s));
    // The smoke and the full table of bench/verify.
    add_batch(fattree, fattree_cases(ft4.graph, ft4.edge, s, 64));
    add_batch(fattree, fattree_cases(ft8.graph, ft8.edge, s, 512));
  }
  EXPECT_EQ(fig2.unsafe, 4u);  // ez-Segway and Central: batch + flow row
  EXPECT_EQ(fig2.h, 0x8555d387650b046full) << std::hex << fig2.h;
  EXPECT_EQ(fig4.h, 0xaa50eed580ee20ecull) << std::hex << fig4.h;
  EXPECT_EQ(mc.h, 0xb6fff0aeba85c39aull) << std::hex << mc.h;
  EXPECT_EQ(fattree.h, 0x7e19409046ce14e3ull) << std::hex << fattree.h;
}

TEST(VerifierGolden, FatTree8EdgePairReroutes) {
  const net::FatTree ft = net::fattree_topology(8);
  Digest d[kPlannerCount];
  for (net::NodeId src : ft.edge) {
    for (net::NodeId dst : ft.edge) {
      if (src == dst) continue;
      const auto paths = net::k_shortest_paths(ft.graph, src, dst, 2);
      ASSERT_EQ(paths.size(), 2u);
      PlanInputs in;
      in.flow = net::flow_id_of(src, dst);
      in.believed_old = paths[0];
      in.new_path = paths[1];
      for (int p = 0; p < kPlannerCount; ++p) {
        d[p].add(verify_plan(plan_with(static_cast<Planner>(p), in)));
      }
    }
  }
  EXPECT_EQ(d[kP4uAuto].verdicts, 992u);
  const std::uint64_t golden[kPlannerCount] = {
      0xdc3a0c714630fce5ull, 0xdc3a0c714630fce5ull, 0x15f288fa836bd965ull,
      0x66fd9be8344cb5a5ull, 0x66fd9be8344cb5a5ull};
  for (int p = 0; p < kPlannerCount; ++p) {
    EXPECT_EQ(d[p].h, golden[p]) << "planner " << p << ": 0x" << std::hex
                                 << d[p].h;
  }
}

TEST(VerifierGolden, SeededMisinformedTriples) {
  Digest d[kPlannerCount];
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    const int n = 6 + static_cast<int>(rng.uniform(5));
    const net::Graph g = ring_with_chords(rng, n, n);
    for (int trial = 0; trial < 6; ++trial) {
      const auto src = static_cast<net::NodeId>(rng.uniform(n));
      const auto dst = static_cast<net::NodeId>(rng.uniform(n));
      if (src == dst) continue;
      const auto paths = net::k_shortest_paths(g, src, dst, 6);
      if (paths.size() < 3) continue;
      const std::uint64_t k = paths.size();
      const std::uint64_t b = rng.uniform(k);
      const std::uint64_t a = (b + 1 + rng.uniform(k - 1)) % k;
      std::uint64_t m = rng.uniform(k);
      if (m == b) m = (m + 1) % k;
      PlanInputs in;
      in.flow = net::flow_id_of(src, dst);
      in.believed_old = paths[b];
      in.actual_from = paths[a];
      in.new_path = paths[m];
      for (int p = 0; p < kPlannerCount; ++p) {
        d[p].add(verify_plan(plan_with(static_cast<Planner>(p), in)));
      }
    }
  }
  // The family must exhibit witnesses for several disciplines.
  EXPECT_GT(d[kEz].unsafe, 0u);
  EXPECT_GT(d[kCentral].unsafe, 0u);
  const std::uint64_t golden[kPlannerCount] = {
      0x8458b916d0b290ddull, 0x4daa74fd6a0330d6ull, 0x9d966c06470f7cc8ull,
      0x7d1905f45eda7421ull, 0x81ece33bf3776653ull};
  for (int p = 0; p < kPlannerCount; ++p) {
    EXPECT_EQ(d[p].h, golden[p])
        << "planner " << p << " (" << d[p].unsafe << " unsafe of "
        << d[p].verdicts << "): 0x" << std::hex << d[p].h;
  }
}

TEST(VerifierGolden, FatTree4DestinationTrees) {
  const net::FatTree ft = net::fattree_topology(4);
  Digest d;
  for (net::NodeId root : ft.edge) {
    // The shortest-path tree over every edge switch, the same tree grown
    // from the reversed member order, and the tree over the first half of
    // the edge switches: moves between them add, drop and re-parent nodes.
    std::vector<net::NodeId> members = ft.edge;
    const control::DestTree old_tree =
        control::spanning_tree_toward(ft.graph, root, members);
    std::vector<net::NodeId> reversed(members.rbegin(), members.rend());
    const control::DestTree new_tree =
        control::spanning_tree_toward(ft.graph, root, reversed);
    std::vector<net::NodeId> half(members.begin(),
                                  members.begin() + members.size() / 2);
    const control::DestTree half_tree =
        control::spanning_tree_toward(ft.graph, root, half);
    const net::FlowId flow = net::flow_id_of(root, root);
    d.add(verify_plan(plan_tree(flow, old_tree, new_tree)));
    d.add(verify_plan(plan_tree(flow, half_tree, old_tree)));
    d.add(verify_plan(plan_tree(flow, old_tree, half_tree)));
  }
  EXPECT_EQ(d.h, 0xbdcd6401dad711d5ull) << std::hex << d.h;
}

TEST(VerifierGolden, RefusalsAndBudgets) {
  Digest d;
  // More than 63 touched switches: refused before any enumeration.
  PlanInputs big;
  big.flow = 1;
  big.believed_old = {0, 64};
  big.new_path = line(65);
  d.add(verify_plan(plan_p4update(big, 5, p4rt::UpdateType::kSingleLayer)));
  d.add(verify_plan(plan_ezsegway(big)));

  // A tiny state budget: Unknown once the enumeration passes it.
  PlanInputs fig4;
  fig4.flow = 2;
  fig4.believed_old = {0, 1, 2, 3, 4, 5};
  fig4.new_path = {0, 2, 1, 4, 3, 5};
  for (std::uint64_t budget : {0ull, 1ull, 2ull, 3ull}) {
    VerifyOptions opt;
    opt.max_states = budget;
    d.add(verify_plan(plan_p4update(fig4, 5, p4rt::UpdateType::kDualLayer),
                      opt));
    d.add(verify_plan(plan_ezsegway(fig4), opt));
    d.add(verify_plan(plan_central(fig4), opt));
    std::vector<FlowPlan> batch{plan_ezsegway(fig4), plan_central(fig4)};
    const BatchResult r = verify_batch(batch, opt);
    d.add(r.overall);
  }

  // Malformed plans: each refusal reason.
  FlowPlan base = plan_p4update(fig4, 5, p4rt::UpdateType::kSingleLayer);
  FlowPlan no_node = base;
  no_node.touched[1].node = net::kNoNode;
  d.add(verify_plan(no_node));
  FlowPlan bad_prereq = base;
  bad_prereq.touched[0].prereqs.push_back(99);
  d.add(verify_plan(bad_prereq));
  FlowPlan bad_succ = base;
  bad_succ.touched[0].dl_succ = 42;
  d.add(verify_plan(bad_succ));
  FlowPlan dup = base;
  dup.touched[2].node = dup.touched[4].node;
  d.add(verify_plan(dup));
  FlowPlan bad_round = plan_central(fig4);
  bad_round.rounds.push_back({-1});
  d.add(verify_plan(bad_round));
  FlowPlan no_sources = base;
  no_sources.sources.clear();
  d.add(verify_plan(no_sources));
  FlowPlan bad_source = base;
  bad_source.sources = {net::kNoNode};
  d.add(verify_plan(bad_source));
  EXPECT_EQ(d.h, 0xc7acf94ba6eca92aull) << std::hex << d.h;
}

TEST(VerifierGolden, NodeLookupEdges) {
  Digest d;
  // Duplicate touched nodes (only the unchecked engine accepts them): the
  // later index answers for the node.
  FlowPlan dup;
  dup.flow = 5;
  dup.discipline = Discipline::kVerifiedChain;
  dup.sources = {0};
  dup.egress = 3;
  dup.old_rules = {{0, 1}, {1, 3}, {3, net::kNoNode}};
  dup.touched = {TouchedNode{}, TouchedNode{}, TouchedNode{}};
  dup.touched[0].node = 0;
  dup.touched[0].new_next = 2;
  dup.touched[0].prereqs = {1};
  dup.touched[1].node = 2;
  dup.touched[1].new_next = 0;
  dup.touched[2].node = 2;
  dup.touched[2].new_next = 3;
  d.add(analyze_lattice(dup));

  // Duplicate from-state rules: the first rule for a node is the one kept.
  FlowPlan old_dup;
  old_dup.flow = 6;
  old_dup.discipline = Discipline::kVerifiedChain;
  old_dup.sources = {0};
  old_dup.egress = 2;
  old_dup.old_rules = {{0, 1}, {1, 2}, {1, 0}, {2, net::kNoNode}};
  old_dup.touched = {TouchedNode{}};
  old_dup.touched[0].node = 0;
  old_dup.touched[0].new_next = 2;
  d.add(verify_plan(old_dup));
  std::swap(old_dup.old_rules[1], old_dup.old_rules[2]);
  d.add(verify_plan(old_dup));

  // Next hops naming nodes the plan never mentions, far above and below
  // every plan node: rule-less, so a blackhole at that id.
  for (net::NodeId far : {1000, 1 << 30, -7}) {
    FlowPlan p;
    p.flow = 7;
    p.discipline = Discipline::kVerifiedChain;
    p.sources = {0};
    p.egress = 2;
    p.old_rules = {{0, 1}, {1, 2}, {2, net::kNoNode}};
    p.touched = {TouchedNode{}};
    p.touched[0].node = 1;
    p.touched[0].new_next = far;
    d.add(verify_plan(p));
    // A source beyond every plan node holds no rule: no traffic yet.
    p.sources = {0, far};
    d.add(verify_plan(p));
  }

  // A loop through the from-state that the walk must catch on revisit.
  FlowPlan loop;
  loop.flow = 8;
  loop.discipline = Discipline::kCausalSegments;
  loop.sources = {0};
  loop.egress = 3;
  loop.old_rules = {{0, 1}, {1, 2}, {2, 3}, {3, net::kNoNode}};
  loop.touched = {TouchedNode{}, TouchedNode{}};
  loop.touched[0].node = 2;
  loop.touched[0].new_next = 0;
  loop.touched[1].node = 3;
  loop.touched[1].new_next = 1;
  d.add(verify_plan(loop));
  EXPECT_EQ(d.unsafe, 9u);
  EXPECT_EQ(d.h, 0x89279d8404ac60a1ull) << std::hex << d.h;
}

}  // namespace
}  // namespace p4u::verify
