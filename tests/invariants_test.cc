// Invariant-enforcement tests: the library's CHECK contracts must actually
// fire on misuse (death tests), and the Status macros must propagate.

#include <gtest/gtest.h>

#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace infuserki {
namespace {

using tensor::Tensor;

TEST(TensorDeath, ShapeMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 3});
  EXPECT_DEATH((void)tensor::Add(a, b), "incompatible shapes");
}

TEST(TensorDeath, MatmulInnerDimMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 5});
  EXPECT_DEATH((void)tensor::Matmul(a, b), "Matmul");
}

TEST(TensorDeath, ItemOnNonScalarAborts) {
  Tensor a = Tensor::Zeros({2});
  EXPECT_DEATH((void)a.item(), "non-scalar");
}

TEST(TensorDeath, BackwardOnNonScalarAborts) {
  Tensor a = Tensor::Zeros({2}, /*requires_grad=*/true);
  EXPECT_DEATH(a.Backward(), "scalar");
}

TEST(TensorDeath, SetRequiresGradOnOpResultAborts) {
  Tensor a = Tensor::Zeros({2}, /*requires_grad=*/true);
  Tensor b = tensor::MulScalar(a, 2.0f);
  EXPECT_DEATH(b.set_requires_grad(false), "non-leaf");
}

TEST(TensorDeath, EmbeddingOutOfRangeAborts) {
  util::Rng rng(1);
  tensor::Embedding embedding(3, 2, &rng);
  EXPECT_DEATH((void)embedding.Forward({5}), "");
  EXPECT_DEATH((void)embedding.Forward({-1}), "");
}

TEST(TensorDeath, AttentionBadKeyLengthAborts) {
  Tensor q = Tensor::Zeros({3, 4});
  Tensor k = Tensor::Zeros({5, 4});
  Tensor v = Tensor::Zeros({5, 4});
  // prefix_len 0 but Tk != Tq.
  EXPECT_DEATH((void)tensor::CausalSelfAttention(q, k, v, 2),
               "prefix_len");
}

TEST(TensorDeath, CrossEntropyNoValidTargetsAborts) {
  Tensor logits = Tensor::Zeros({2, 3});
  EXPECT_DEATH((void)tensor::CrossEntropy(logits, {-1, -1}, -1),
               "no valid targets");
}

namespace status_macros {

util::Status Fails() { return util::Status::NotFound("inner"); }

util::Status Propagates() {
  RETURN_IF_ERROR(Fails());
  return util::Status::Internal("unreachable");
}

util::StatusOr<int> ProducesValue() { return 41; }
util::StatusOr<int> ProducesError() {
  return util::Status::InvalidArgument("nope");
}

util::Status UsesAssign(bool fail, int* out) {
  ASSIGN_OR_RETURN(int value, fail ? ProducesError() : ProducesValue());
  *out = value + 1;
  return util::Status::OK();
}

}  // namespace status_macros

TEST(StatusMacros, ReturnIfErrorPropagates) {
  util::Status status = status_macros::Propagates();
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "inner");
}

TEST(StatusMacros, AssignOrReturnValueAndError) {
  int out = 0;
  EXPECT_TRUE(status_macros::UsesAssign(false, &out).ok());
  EXPECT_EQ(out, 42);
  util::Status status = status_macros::UsesAssign(true, &out);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace infuserki
