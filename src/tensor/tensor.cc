#include "tensor/tensor.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace infuserki::tensor {

size_t NumElements(const Shape& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

namespace {
thread_local bool t_grad_enabled = true;

/// The set of nodes Backward's graph walk has reached: open addressing over
/// node pointers, kept per thread so a warm walk does not allocate. The mark
/// cannot live in the node, because two threads may walk graphs that share
/// leaves (one frozen base under two adapters).
class VisitedNodes {
 public:
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), nullptr);
    size_ = 0;
  }

  /// True when `node` was not in the set yet.
  bool Insert(const internal::TensorImpl* node) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the high bits of the product spread aligned heap
    // addresses over the table.
    const uint64_t address = reinterpret_cast<uintptr_t>(node);
    size_t slot = static_cast<size_t>(address * kFibonacci >> 32) & mask;
    while (slots_[slot] != nullptr) {
      if (slots_[slot] == node) return false;
      slot = (slot + 1) & mask;
    }
    slots_[slot] = node;
    ++size_;
    return true;
  }

 private:
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15;  // 2^64 / phi

  void Grow() {
    std::vector<const internal::TensorImpl*> old;
    old.swap(slots_);
    slots_.assign(std::max<size_t>(1024, old.size() * 2), nullptr);
    size_ = 0;
    for (const internal::TensorImpl* node : old) {
      if (node != nullptr) Insert(node);
    }
  }

  std::vector<const internal::TensorImpl*> slots_;  // size is a power of 2
  size_t size_ = 0;
};

thread_local VisitedNodes t_visited;
}  // namespace

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  CHECK(!shape.empty()) << "rank-0 tensors are not supported";
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->data.assign(NumElements(shape), value);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(Shape shape, std::vector<float> data,
                        bool requires_grad) {
  CHECK(!shape.empty()) << "rank-0 tensors are not supported";
  CHECK_EQ(NumElements(shape), data.size())
      << "shape " << ShapeToString(shape) << " does not match data size";
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({1}, {value}, requires_grad);
}

Tensor Tensor::Randn(Shape shape, util::Rng* rng, float stddev,
                     bool requires_grad) {
  CHECK(rng != nullptr);
  std::vector<float> data(NumElements(shape));
  for (float& v : data) {
    v = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return FromData(std::move(shape), std::move(data), requires_grad);
}

Tensor Tensor::RandUniform(Shape shape, util::Rng* rng, float lo, float hi,
                           bool requires_grad) {
  CHECK(rng != nullptr);
  std::vector<float> data(NumElements(shape));
  for (float& v : data) {
    v = static_cast<float>(rng->Uniform(lo, hi));
  }
  return FromData(std::move(shape), std::move(data), requires_grad);
}

void Tensor::Backward() {
  CHECK(defined());
  CHECK_EQ(size(), size_t{1}) << "Backward() requires a scalar loss";
  CHECK(requires_grad()) << "Backward() on a tensor with no grad history";

  // Topological order via iterative post-order DFS over parents.
  std::vector<internal::TensorImpl*> order;
  VisitedNodes& visited = t_visited;
  visited.Clear();
  struct Frame {
    internal::TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({impl_.get(), 0});
  visited.Insert(impl_.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::TensorImpl* parent =
          frame.node->parents[frame.next_parent++].get();
      if (visited.Insert(parent)) {
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  impl_->MutableGrad()[0] = 1.0f;
  // Reverse topological order: node gradients are complete before their
  // backward functions scatter into parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn();
    }
  }
}

void Tensor::ZeroGrad() const {
  CHECK(defined());
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  CHECK(defined());
  return FromData(impl_->shape, impl_->data, /*requires_grad=*/false);
}

Tensor Tensor::MakeOpResult(
    Shape shape, std::vector<float> data, std::vector<Tensor> parents,
    const std::function<void(internal::TensorImpl*)>& make_backward) {
  Tensor result = FromData(std::move(shape), std::move(data));
  bool needs_grad = false;
  if (GradEnabled()) {
    for (const Tensor& parent : parents) {
      if (parent.defined() && parent.requires_grad()) {
        needs_grad = true;
        break;
      }
    }
  }
  if (needs_grad) {
    result.impl_->requires_grad = true;
    result.impl_->parents.reserve(parents.size());
    for (const Tensor& parent : parents) {
      if (parent.defined()) result.impl_->parents.push_back(parent.impl());
    }
    make_backward(result.impl_.get());
  }
  return result;
}

}  // namespace infuserki::tensor
