// Each benchmark check accepts a correct tuning output and rejects a
// deliberately wrong one: a perturbed cost, an oversized structure, a
// swapped recommendation, a miscounted or double-counted call.

#include "checks.h"

#include <gtest/gtest.h>

#include <memory>

#include "dta/tuning_session.h"
#include "server/server.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using dta::catalog::Configuration;
using dta::catalog::IndexDef;
namespace tuner = dta::tuner;

// A small statistics-warm TPC-H session, tuned once for every test.
class TunedTpch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    server_ = std::make_unique<dta::server::Server>(
        "prod", dta::optimizer::HardwareParams());
    ASSERT_TRUE(dta::workloads::AttachTpch(server_.get(), 0.1, false, 7).ok());
    wl_ = std::make_unique<dta::workload::Workload>(
        dta::workloads::TpchQueriesPrefix(6, 11));
    tuner::TuningOptions options;
    options.num_threads = 1;
    tuner::TuningSession session(server_.get(), options);
    const size_t before = server_->whatif_call_count();
    auto r = session.Tune(*wl_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    server_calls_ = server_->whatif_call_count() - before;
    result_ = std::make_unique<tuner::TuningResult>(std::move(r).value());
    ASSERT_GT(result_->recommendation.StructureCount(), 0u);
  }
  static void TearDownTestSuite() {
    result_.reset();
    wl_.reset();
    server_.reset();
  }

  static tuner::EvaluationResult Fresh(const Configuration& rec) {
    tuner::TuningOptions options;
    options.num_threads = 1;
    options.derived_costing = false;
    tuner::TuningSession fresh(server_.get(), options);
    auto e = fresh.EvaluateConfiguration(*wl_, rec);
    EXPECT_TRUE(e.ok());
    return e.ok() ? *e : tuner::EvaluationResult{};
  }

  static std::unique_ptr<dta::server::Server> server_;
  static std::unique_ptr<dta::workload::Workload> wl_;
  static std::unique_ptr<tuner::TuningResult> result_;
  static size_t server_calls_;  // the server's count during the tune
};

std::unique_ptr<dta::server::Server> TunedTpch::server_;
std::unique_ptr<dta::workload::Workload> TunedTpch::wl_;
std::unique_ptr<tuner::TuningResult> TunedTpch::result_;
size_t TunedTpch::server_calls_ = 0;

TEST_F(TunedTpch, CostsMatchAcceptsTheTunedCostsAndRejectsAPerturbedOne) {
  const tuner::EvaluationResult fresh = Fresh(result_->recommendation);
  EXPECT_TRUE(CheckCostsMatch(result_->current_cost,
                              result_->recommended_cost, fresh.current_cost,
                              fresh.evaluated_cost, 0)
                  .ok());
  EXPECT_FALSE(CheckCostsMatch(result_->current_cost,
                               result_->recommended_cost * 1.001,
                               fresh.current_cost, fresh.evaluated_cost, 0)
                   .ok());
  EXPECT_FALSE(CheckCostsMatch(result_->current_cost * 0.99,
                               result_->recommended_cost, fresh.current_cost,
                               fresh.evaluated_cost, 0)
                   .ok());
  // A tolerance admits small differences only.
  EXPECT_TRUE(CheckCostsMatch(100, 50, 101, 50.5, 0.03).ok());
  EXPECT_FALSE(CheckCostsMatch(100, 50, 100, 52, 0.03).ok());
}

TEST_F(TunedTpch, CostsMatchRejectsASwappedRecommendation) {
  // The design recommended for other queries, priced by a fresh session,
  // does not cost what this session reported for its own recommendation.
  dta::workload::Workload other = dta::workloads::TpchQueriesPrefix(22, 11);
  dta::workload::Workload tail;
  for (size_t i = 12; i < other.size(); ++i) {
    tail.Add(other.statements()[i].stmt.Clone());
  }
  tuner::TuningOptions options;
  options.num_threads = 1;
  tuner::TuningSession session(server_.get(), options);
  auto swapped = session.Tune(tail);
  ASSERT_TRUE(swapped.ok());
  const tuner::EvaluationResult fresh = Fresh(swapped->recommendation);
  EXPECT_FALSE(CheckCostsMatch(result_->current_cost,
                               result_->recommended_cost, fresh.current_cost,
                               fresh.evaluated_cost, 0)
                   .ok());
  EXPECT_FALSE(CheckSameRecommendation(result_->recommendation,
                                       swapped->recommendation, "swap")
                   .ok());
  EXPECT_TRUE(CheckSameRecommendation(result_->recommendation,
                                      result_->recommendation, "self")
                  .ok());
}

TEST_F(TunedTpch, NotWorseRejectsACostlierRecommendation) {
  EXPECT_TRUE(
      CheckNotWorse(result_->current_cost, result_->recommended_cost).ok());
  EXPECT_FALSE(
      CheckNotWorse(result_->current_cost, result_->current_cost * 1.01).ok());
  EXPECT_FALSE(CheckNotWorse(0, 0).ok());
}

TEST_F(TunedTpch, StorageBoundRejectsAnOversizedStructure) {
  const auto& catalog = server_->catalog();
  const uint64_t bytes = result_->recommendation.EstimateBytes(catalog);
  EXPECT_TRUE(CheckStorageBound(bytes, bytes).ok());
  Configuration oversized = result_->recommendation;
  IndexDef wide;
  wide.database = "tpch";
  wide.table = "lineitem";
  wide.key_columns = {"l_comment"};
  wide.included_columns = {"l_shipinstruct", "l_shipmode", "l_extendedprice"};
  ASSERT_TRUE(oversized.AddIndex(wide).ok());
  EXPECT_GT(oversized.EstimateBytes(catalog), bytes);
  EXPECT_FALSE(
      CheckStorageBound(oversized.EstimateBytes(catalog), bytes).ok());
}

TEST_F(TunedTpch, CallsConservedRejectsAMiscount) {
  const size_t calls = result_->whatif_calls;
  EXPECT_TRUE(CheckCallsConserved(calls, calls).ok());
  EXPECT_FALSE(CheckCallsConserved(calls + 1, calls).ok());
  EXPECT_FALSE(CheckCallsConserved(calls, calls + 1).ok());
}

TEST_F(TunedTpch, CallsCountedRejectsAReportedCallNoServerCounted) {
  // The server also counts the session's plan calls, so it counts more.
  EXPECT_TRUE(CheckCallsCounted(server_calls_, result_->whatif_calls).ok());
  // A session that double-counts a call reports more than any server saw.
  EXPECT_FALSE(CheckCallsCounted(server_calls_, server_calls_ + 1).ok());
}

TEST(LookupIdentity, RejectsAnUnaccountedLookup) {
  EXPECT_TRUE(CheckLookupIdentity(100, 60, 30, 10).ok());
  EXPECT_FALSE(CheckLookupIdentity(101, 60, 30, 10).ok());
  EXPECT_FALSE(CheckLookupIdentity(100, 60, 30, 11).ok());
}

}  // namespace
}  // namespace perfbench
