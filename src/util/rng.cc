#include "util/rng.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace infuserki::util {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::string Rng::SaveState() const {
  std::ostringstream os;
  os << engine_;
  return os.str();
}

Status Rng::RestoreState(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 engine;
  is >> engine;
  if (is.fail()) {
    return Status::InvalidArgument("unparseable rng state");
  }
  engine_ = engine;
  return Status::OK();
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  CHECK_LE(k, n);
  // Partial Fisher-Yates: O(n) memory, O(k) swaps.
  std::vector<size_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(
        UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(n) - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace infuserki::util
