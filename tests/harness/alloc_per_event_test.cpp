// Heap allocations per executed event on the update path.
//
// A fat-tree(4) churn bed, configured as the churn benchmark's (bounded
// admission window with per-flow serialization and coalescing, the static
// preflight on), runs once per system while every global operator new is
// counted. Only bed.run() is counted: topology, workload and deployment
// allocate freely. Per-event metric handles, the reusable preflight
// workspace, install continuations stored in the event slot, and flat
// per-flow rows for the request lifecycle and the three protocols keep the
// run phase near allocation-free; the ceilings below catch a regression
// that brings per-event heap traffic back.
//
// Replacing operator new affects the whole program, so this test is its
// own executable. The replacements forward to malloc/free, so sanitizer
// builds still check every block.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "harness/churn.hpp"
#include "harness/scenario.hpp"
#include "net/fattree.hpp"
#include "net/topologies.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace p4u::harness {
namespace {

struct RunCount {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(allocations) /
                             static_cast<double>(events);
  }
};

RunCount count_run_allocations(SystemKind kind) {
  constexpr std::uint64_t kSeed = 64;
  net::FatTree ft = net::fattree_topology(4);
  net::set_uniform_capacity(ft.graph, 100.0);
  ChurnParams cp;
  cp.pairs = 16;
  cp.initial_flows = 32;
  cp.arrivals_per_sec = 100.0;
  cp.duration = sim::seconds(10);
  cp.endpoints = ft.edge;
  const ChurnWorkload wl = make_churn_workload(ft.graph, kSeed, cp);

  TestBedParams params;
  params.system = kind;
  params.seed = kSeed;
  params.trace_enabled = false;
  params.measure_prep_wallclock = false;
  params.admission.max_inflight_global = 32;
  params.admission.max_inflight_per_flow = 1;
  params.admission.coalesce = true;
  params.static_preflight = true;
  TestBed bed(ft.graph, params);
  bed.reserve_events(ft.graph.node_count() * 64 + wl.events.size() * 256 +
                     1024);
  install_churn(bed, wl);

  RunCount out;
  const std::uint64_t events_before = bed.simulator().executed();
  g_allocations = 0;
  g_counting = true;
  bed.run(sim::seconds(120));
  g_counting = false;
  out.allocations = g_allocations;
  out.events = bed.simulator().executed() - events_before;
  EXPECT_TRUE(bed.flow_db().all_requests_terminal()) << to_string(kind);
  return out;
}

struct Ceiling {
  SystemKind kind;
  double max_per_event;
};

// Measured on this bed: P4Update 0.139, ez-Segway 0.148, Central 0.271
// allocations per event. Each ceiling sits at most 10% above the measured
// value, and below what the per-switch rule tables and per-register UIB
// arrays cost (0.202 / 0.161 / 0.299). What remains is mostly per-flow
// growth (first rows, FlowDb log chunks) and the bring-up of added flows.
constexpr Ceiling kCeilings[] = {
    {SystemKind::kP4Update, 0.15},
    {SystemKind::kEzSegway, 0.16},
    {SystemKind::kCentral, 0.29},
};

TEST(AllocPerEventTest, RunPhaseStaysUnderCeiling) {
  for (const Ceiling& c : kCeilings) {
    const RunCount r = count_run_allocations(c.kind);
    std::printf("%-9s %llu allocations / %llu events = %.3f per event\n",
                to_string(c.kind),
                static_cast<unsigned long long>(r.allocations),
                static_cast<unsigned long long>(r.events), r.per_event());
    ASSERT_GT(r.events, 1000u) << to_string(c.kind);
    EXPECT_LE(r.per_event(), c.max_per_event) << to_string(c.kind);
  }
}

}  // namespace
}  // namespace p4u::harness
