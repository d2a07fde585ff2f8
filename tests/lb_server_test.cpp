#include "lb/server.hpp"

#include <gtest/gtest.h>

namespace ftl::lb {
namespace {

// Every test drives server 0 of a one-server ServerArray.
constexpr std::size_t kS = 0;

TEST(Server, EmptyServesNothing) {
  ServerArray s(1);
  Request served[2];
  EXPECT_EQ(s.step(kS, ServicePolicy::kPaperCFirst, served), 0u);
  EXPECT_EQ(s.queue_length(kS), 0u);
}

TEST(Server, QueuedOfCounts) {
  ServerArray s(1);
  s.enqueue(kS, TaskType::kC, 0, 0);
  s.enqueue(kS, TaskType::kE, 0, 0);
  s.enqueue(kS, TaskType::kC, 0, 0);
  EXPECT_EQ(s.queued_of(kS, TaskType::kC), 2u);
  EXPECT_EQ(s.queued_of(kS, TaskType::kE), 1u);
  EXPECT_EQ(s.queue_length(kS), 3u);
}

TEST(PaperCFirst, ServesTwoCsTogether) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 1, 0);
  s.enqueue(kS, TaskType::kC, 2, 0);
  s.enqueue(kS, TaskType::kC, 3, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kPaperCFirst, served);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 2u);
  EXPECT_EQ(s.queue_length(kS), 1u);
}

TEST(PaperCFirst, SingleCServedAlone) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 0, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kPaperCFirst, served);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(served[0].type, TaskType::kC);
}

TEST(PaperCFirst, CPairSkipsInterveningE) {
  // C requests pair up even across an E in between; the E waits.
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 1, 0);
  s.enqueue(kS, TaskType::kE, 2, 0);
  s.enqueue(kS, TaskType::kC, 3, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kPaperCFirst, served);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 3u);
  EXPECT_EQ(s.queued_of(kS, TaskType::kE), 1u);
}

TEST(PaperCFirst, EServedOnlyWhenNoC) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kE, 1, 0);
  s.enqueue(kS, TaskType::kE, 2, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kPaperCFirst, served);
  ASSERT_EQ(n, 1u);  // E is exclusive: one per step
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(s.queue_length(kS), 1u);
}

TEST(PaperCFirst, CPriorityStarvesE) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kE, 9, 0);
  s.enqueue(kS, TaskType::kC, 1, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kPaperCFirst, served);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(served[0].type, TaskType::kC);
}

TEST(FifoPair, HeadEBlocksCs) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kE, 1, 0);
  s.enqueue(kS, TaskType::kC, 2, 0);
  s.enqueue(kS, TaskType::kC, 3, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kFifoPair, served);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(served[0].balancer, 1u);
}

TEST(FifoPair, HeadCPairsWithLaterC) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 1, 0);
  s.enqueue(kS, TaskType::kE, 2, 0);
  s.enqueue(kS, TaskType::kC, 3, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kFifoPair, served);
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(served[0].balancer, 1u);
  EXPECT_EQ(served[1].balancer, 3u);
}

TEST(EFirst, PrefersE) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 1, 0);
  s.enqueue(kS, TaskType::kE, 2, 0);
  const std::size_t n = s.step(kS, ServicePolicy::kEFirst, served);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(served[0].type, TaskType::kE);
}

TEST(EFirst, PairsCsWhenNoE) {
  ServerArray s(1);
  Request served[2];
  s.enqueue(kS, TaskType::kC, 1, 0);
  s.enqueue(kS, TaskType::kC, 2, 0);
  EXPECT_EQ(s.step(kS, ServicePolicy::kEFirst, served), 2u);
}

TEST(Server, DrainsCompletely) {
  for (auto policy : {ServicePolicy::kPaperCFirst, ServicePolicy::kFifoPair,
                      ServicePolicy::kEFirst}) {
    ServerArray s(1);
  Request served[2];
    for (int i = 0; i < 10; ++i) {
      s.enqueue(kS, i % 3 == 0 ? TaskType::kE : TaskType::kC, 0, 0);
    }
    int steps = 0;
    while (s.queue_length(kS) > 0 && steps < 100) {
      ASSERT_GT(s.step(kS, policy, served), 0u) << to_string(policy);
      ++steps;
    }
    EXPECT_EQ(s.queue_length(kS), 0u) << to_string(policy);
    EXPECT_LE(steps, 10);
  }
}

TEST(Server, ToStringNames) {
  EXPECT_STREQ(to_string(ServicePolicy::kPaperCFirst), "paper-c-first");
  EXPECT_STREQ(to_string(ServicePolicy::kFifoPair), "fifo-pair");
  EXPECT_STREQ(to_string(ServicePolicy::kEFirst), "e-first");
}

}  // namespace
}  // namespace ftl::lb
