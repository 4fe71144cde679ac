// The exception-mapping probe shared by the thread, serve, and process
// hosts of the fragment-attempt kernel: one engine that throws every
// exception class the kernel maps, each on a fixed fragment id, and the
// outcome every host must report for it.
#pragma once

#include <atomic>
#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::attempt_probe {

// Fragment ids of the probe sweep (one water each) and what they throw.
inline constexpr std::size_t kTimeoutId = 0;    // TimeoutError
inline constexpr std::size_t kNumericalId = 1;  // NumericalError
inline constexpr std::size_t kStdId = 2;        // std::runtime_error
inline constexpr std::size_t kForeignId = 3;    // throw 42
inline constexpr std::size_t kCancelId = 4;     // CancelledError, once
inline constexpr std::size_t kCleanId = 5;      // never throws
inline constexpr std::size_t kFragments = 6;

/// Retries per fragment on every host: each failing fragment uses one.
inline constexpr std::size_t kMaxRetries = 1;
/// The cancelled attempt leaves its lease live; the straggler scan
/// re-queues the fragment after this many seconds.
inline constexpr double kStragglerTimeout = 1.0;

/// Six waters far apart: six single-water fragments with ids 0..5.
inline frag::BioSystem probe_system() {
  frag::BioSystem sys;
  for (std::size_t i = 0; i < kFragments; ++i)
    sys.waters.push_back(
        chem::make_water({20.0 * static_cast<double>(i), 0.0, 0.0}));
  return sys;
}

/// Model engine that throws on the probe ids. `cancel_throws` counts the
/// CancelledError throws: only the first attempt of kCancelId throws, so
/// the re-queued attempt completes. Hosts that fork must place the
/// counter in memory shared with their children.
class ThrowingEngine final : public engine::FragmentEngine {
 public:
  explicit ThrowingEngine(std::atomic<int>* cancel_throws)
      : cancel_throws_(cancel_throws) {}

  engine::FragmentResult compute(const chem::Molecule& m) const override {
    return model_.compute(m);
  }
  engine::FragmentResult compute(std::size_t id,
                                 const chem::Molecule& m) const override {
    throw_for(id);
    return model_.compute(m);
  }
  engine::FragmentResult compute(
      std::size_t id, const chem::Molecule& m,
      const std::vector<chem::Bond>& bonds) const override {
    throw_for(id);
    return model_.compute(id, m, bonds);
  }
  std::string name() const override { return "probe"; }

 private:
  void throw_for(std::size_t id) const {
    switch (id) {
      case kTimeoutId:
        throw TimeoutError("probe timeout", std::source_location::current());
      case kNumericalId:
        throw NumericalError("probe divergence",
                             std::source_location::current());
      case kStdId: throw std::runtime_error("probe std error");
      case kForeignId: throw 42;
      case kCancelId:
        if (cancel_throws_->fetch_add(1) == 0)
          throw CancelledError("probe cancel",
                               std::source_location::current());
        return;
      default: return;
    }
  }

  engine::ModelEngine model_;
  std::atomic<int>* cancel_throws_;
};

/// The exception -> outcome table every host must reproduce.
inline void expect_probe_outcomes(
    const std::vector<runtime::FragmentOutcome>& outcomes,
    const std::string& host) {
  using runtime::FailureReason;
  ASSERT_EQ(outcomes.size(), kFragments) << host;
  const FailureReason expected[kFragments] = {
      FailureReason::kTimeout,     FailureReason::kNonConvergence,
      FailureReason::kEngineError, FailureReason::kEngineError,
      FailureReason::kNone,        FailureReason::kNone};
  for (std::size_t id = 0; id < kFragments; ++id) {
    const runtime::FragmentOutcome& o = outcomes[id];
    EXPECT_EQ(o.reason, expected[id]) << host << " fragment " << id;
    EXPECT_EQ(o.completed, expected[id] == FailureReason::kNone)
        << host << " fragment " << id;
  }
  // Every failure used its one retry; the cancelled attempt used none and
  // came back through the straggler re-queue instead.
  for (const std::size_t id : {kTimeoutId, kNumericalId, kStdId, kForeignId})
    EXPECT_EQ(outcomes[id].attempts, 1 + kMaxRetries) << host << " " << id;
  EXPECT_EQ(outcomes[kCancelId].attempts, 2u) << host;
  EXPECT_EQ(outcomes[kCleanId].attempts, 1u) << host;
  EXPECT_NE(outcomes[kStdId].error.find("probe std error"),
            std::string::npos)
      << host;
  EXPECT_EQ(outcomes[kForeignId].error, "unknown error") << host;
}

/// Same reason and acceptance for every fragment on two hosts.
inline void expect_same_outcomes(
    const std::vector<runtime::FragmentOutcome>& a,
    const std::vector<runtime::FragmentOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a[id].reason, b[id].reason) << "fragment " << id;
    EXPECT_EQ(a[id].completed, b[id].completed) << "fragment " << id;
    EXPECT_EQ(a[id].attempts, b[id].attempts) << "fragment " << id;
  }
}

}  // namespace qfr::attempt_probe
