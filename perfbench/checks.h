// Correctness checks of the benchmark. Each compares a tuning run's output
// with a computation made apart from that run, or with a property the
// method must have; none compares against a stored copy of earlier output.
// Every check returns a non-ok Status naming what did not hold, and the
// benchmark fails its run on the first one.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "catalog/physical_design.h"
#include "common/status.h"

namespace perfbench {

// The costs Tune reported against the costs a fresh session computes for
// the same recommendation (EvaluateConfiguration, derived costing off).
// `rel_tolerance` is the allowed relative difference of each cost: 0 for
// workloads tuned uncompressed, where both sides price the same statements.
dta::Status CheckCostsMatch(double tuned_current, double tuned_recommended,
                            double fresh_current, double fresh_recommended,
                            double rel_tolerance);

// The recommendation never costs more than the current design.
dta::Status CheckNotWorse(double current_cost, double recommended_cost);

// The recommendation's structures fit the session's storage bound.
dta::Status CheckStorageBound(uint64_t recommended_bytes, uint64_t bound);

// Real optimizer calls the tuning server(s) counted equal the calls the
// session reported: no call is lost, double-counted or made off the books.
dta::Status CheckCallsConserved(size_t server_calls, size_t reported_calls);

// Every call the session reported reached a server, which counted it:
// server_calls >= reported_calls. Where the session's servers also plan
// through Server::WhatIfPlan, outside the cost service, they count more.
dta::Status CheckCallsCounted(size_t server_calls, size_t reported_calls);

// Every cost-service lookup is a cache hit, a real call or a derived answer
// that saved one: lookups == hits + calls + saved.
dta::Status CheckLookupIdentity(uint64_t lookups, uint64_t hits,
                                uint64_t calls, uint64_t saved);

// Two recommendations are byte-identical in their XML form. `what` names
// the comparison in the error.
dta::Status CheckSameRecommendation(const dta::catalog::Configuration& a,
                                    const dta::catalog::Configuration& b,
                                    const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
