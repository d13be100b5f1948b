// Checked entry points of the static update-plan verifier (DESIGN.md §12).
//
// verify_plan() validates the FlowPlan (index ranges, duplicate touched
// nodes, source/egress sanity) before handing it to the lattice engine —
// malformed plans come back Unknown with a reason, never a crash and never
// a Safe. verify_batch() folds per-flow verdicts into a batch verdict:
// per-flow version monotonicity makes flows independent for loop and
// blackhole freedom, so the batch is Unsafe if any flow is, else Unknown
// if any flow is, else Safe. (Congestion is a cross-flow property and
// stays with the dynamic layers.)
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "verify/lattice.hpp"
#include "verify/plan.hpp"
#include "verify/verdict.hpp"

namespace p4u::verify {

/// Checks `plan` and analyzes its lattice in `ws`, which the caller owns
/// and may reuse for any later plan (the controller's preflight keeps one).
Verdict verify_plan(const FlowPlan& plan, LatticeWorkspace& ws,
                    const VerifyOptions& opt = {});

/// verify_plan in a workspace of its own.
Verdict verify_plan(const FlowPlan& plan, const VerifyOptions& opt = {});

struct BatchResult {
  Verdict overall;  // worst verdict: Unsafe > Unknown > Safe
  std::vector<std::pair<net::FlowId, Verdict>> per_flow;
};

/// Verifies every plan in one shared workspace.
BatchResult verify_batch(const std::vector<FlowPlan>& plans,
                         const VerifyOptions& opt = {});

}  // namespace p4u::verify
