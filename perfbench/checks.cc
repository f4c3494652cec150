#include "checks.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "dta/xml_schema.h"

namespace perfbench {

using dta::Status;
using dta::StrFormat;

namespace {

bool WithinRelative(double a, double b, double tolerance) {
  if (a == b) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tolerance * scale;
}

}  // namespace

Status CheckCostsMatch(double tuned_current, double tuned_recommended,
                       double fresh_current, double fresh_recommended,
                       double rel_tolerance) {
  if (!WithinRelative(tuned_current, fresh_current, rel_tolerance)) {
    return Status::FailedPrecondition(StrFormat(
        "current cost %.17g from tuning differs from %.17g priced by a fresh "
        "session (tolerance %g)",
        tuned_current, fresh_current, rel_tolerance));
  }
  if (!WithinRelative(tuned_recommended, fresh_recommended, rel_tolerance)) {
    return Status::FailedPrecondition(StrFormat(
        "recommended cost %.17g from tuning differs from %.17g priced by a "
        "fresh session (tolerance %g)",
        tuned_recommended, fresh_recommended, rel_tolerance));
  }
  return Status::Ok();
}

Status CheckNotWorse(double current_cost, double recommended_cost) {
  if (!(current_cost > 0) || !(recommended_cost >= 0) ||
      recommended_cost > current_cost) {
    return Status::FailedPrecondition(StrFormat(
        "recommended cost %.17g is not within [0, current cost %.17g]",
        recommended_cost, current_cost));
  }
  return Status::Ok();
}

Status CheckStorageBound(uint64_t recommended_bytes, uint64_t bound) {
  if (recommended_bytes > bound) {
    return Status::FailedPrecondition(StrFormat(
        "recommendation needs %llu bytes, over the %llu-byte storage bound",
        static_cast<unsigned long long>(recommended_bytes),
        static_cast<unsigned long long>(bound)));
  }
  return Status::Ok();
}

Status CheckCallsConserved(size_t server_calls, size_t reported_calls) {
  if (server_calls != reported_calls) {
    return Status::FailedPrecondition(
        StrFormat("servers counted %zu what-if calls, the session reported %zu",
                  server_calls, reported_calls));
  }
  return Status::Ok();
}

Status CheckCallsCounted(size_t server_calls, size_t reported_calls) {
  if (server_calls < reported_calls) {
    return Status::FailedPrecondition(StrFormat(
        "the session reported %zu what-if calls, the servers counted only %zu",
        reported_calls, server_calls));
  }
  return Status::Ok();
}

Status CheckLookupIdentity(uint64_t lookups, uint64_t hits, uint64_t calls,
                           uint64_t saved) {
  if (lookups != hits + calls + saved) {
    return Status::FailedPrecondition(StrFormat(
        "whatif.lookups %llu != cache_hits %llu + calls %llu + calls_saved "
        "%llu",
        static_cast<unsigned long long>(lookups),
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(calls),
        static_cast<unsigned long long>(saved)));
  }
  return Status::Ok();
}

Status CheckSameRecommendation(const dta::catalog::Configuration& a,
                               const dta::catalog::Configuration& b,
                               const std::string& what) {
  const std::string xa = dta::tuner::ConfigurationToXml(a)->ToString();
  const std::string xb = dta::tuner::ConfigurationToXml(b)->ToString();
  if (xa != xb) {
    return Status::FailedPrecondition(
        what + ": recommendations differ\n--- first ---\n" + xa +
        "\n--- second ---\n" + xb);
  }
  return Status::Ok();
}

}  // namespace perfbench
