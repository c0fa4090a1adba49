#include "common/status.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ndv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = DataLossError("partition %d lost %lld rows", 3,
                                      static_cast<long long>(125000));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "partition 3 lost 125000 rows");
  EXPECT_EQ(status.ToString(), "DATA_LOSS: partition 3 lost 125000 rows");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kDataLoss, StatusCode::kDeadlineExceeded,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(UnavailableError("x"), UnavailableError("x"));
  EXPECT_NE(UnavailableError("x"), UnavailableError("y"));
  EXPECT_NE(UnavailableError("x"), DataLossError("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("no column '%s'", "zip");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.status().message(), "no column 'zip'");
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::vector<int>> result = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(result.ok());
  const std::vector<int> taken = *std::move(result);
  EXPECT_EQ(taken.size(), 3u);
}

TEST(StatusOrTest, ArrowOperatorReachesMembers) {
  StatusOr<std::string> result = std::string("hello");
  EXPECT_EQ(result->size(), 5u);
}

TEST(StatusOrTest, ValueOnErrorAborts) {
  StatusOr<int> result = UnavailableError("worker down");
  EXPECT_DEATH((void)result.value(), "worker down");
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  auto inner = [](bool fail) -> Status {
    if (fail) return DeadlineExceededError("too slow");
    return Status::Ok();
  };
  auto outer = [&](bool fail) -> Status {
    NDV_RETURN_IF_ERROR(inner(fail));
    return Status::Ok();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace ndv
