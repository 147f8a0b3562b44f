// counted<T>: an instrumented arithmetic wrapper. Every arithmetic
// operation on a counted<double>/counted<float>/counted integer bumps the
// calling thread's slot in its bound context's sink — the same observable
// SDE provides by counting executed operations. Like the add_* helpers,
// it throws std::logic_error on a thread no context has bound.
//
// Kernels in this repo count via the explicit add_* helpers at loop
// granularity (cheap, vectorizable); counted<T> exists as the *oracle*:
// property tests run reduced-size kernels templated on counted<T> and
// assert the two mechanisms agree, which validates the analytic counts.
#pragma once

#include <cmath>
#include <type_traits>

#include "counters/sink.hpp"

namespace fpr::counters {

namespace detail {

template <typename T>
inline void bump_one() {
  if constexpr (std::is_same_v<T, double>) {
    add_fp64(1);
  } else if constexpr (std::is_same_v<T, float>) {
    add_fp32(1);
  } else {
    static_assert(std::is_integral_v<T>, "counted<T> needs arithmetic T");
    add_int(1);
  }
}

template <typename T>
inline void bump_n(std::uint64_t n) {
  if constexpr (std::is_same_v<T, double>) {
    add_fp64(n);
  } else if constexpr (std::is_same_v<T, float>) {
    add_fp32(n);
  } else {
    add_int(n);
  }
}

}  // namespace detail

template <typename T>
class counted {
  static_assert(std::is_arithmetic_v<T>);

 public:
  using value_type = T;

  constexpr counted() = default;
  constexpr counted(T v) : v_(v) {}  // NOLINT: implicit by design

  [[nodiscard]] constexpr T value() const { return v_; }
  explicit constexpr operator T() const { return v_; }

  // Each binary arithmetic op counts one operation of T's class.
  friend counted operator+(counted a, counted b) {
    detail::bump_one<T>();
    return counted(a.v_ + b.v_);
  }
  friend counted operator-(counted a, counted b) {
    detail::bump_one<T>();
    return counted(a.v_ - b.v_);
  }
  friend counted operator*(counted a, counted b) {
    detail::bump_one<T>();
    return counted(a.v_ * b.v_);
  }
  friend counted operator/(counted a, counted b) {
    detail::bump_one<T>();
    return counted(a.v_ / b.v_);
  }

  counted& operator+=(counted o) { return *this = *this + o; }
  counted& operator-=(counted o) { return *this = *this - o; }
  counted& operator*=(counted o) { return *this = *this * o; }
  counted& operator/=(counted o) { return *this = *this / o; }

  counted operator-() const {
    detail::bump_one<T>();
    return counted(-v_);
  }

  // Comparisons count a branch operation (they almost always feed one).
  friend bool operator<(counted a, counted b) {
    add_branch(1);
    return a.v_ < b.v_;
  }
  friend bool operator>(counted a, counted b) {
    add_branch(1);
    return a.v_ > b.v_;
  }
  friend bool operator<=(counted a, counted b) {
    add_branch(1);
    return a.v_ <= b.v_;
  }
  friend bool operator>=(counted a, counted b) {
    add_branch(1);
    return a.v_ >= b.v_;
  }
  friend bool operator==(counted a, counted b) {
    add_branch(1);
    return a.v_ == b.v_;
  }

 private:
  T v_{};
};

/// Fused multiply-add on counted values: counts 2 operations, matching the
/// 2-flop convention the paper's peak numbers assume for FMA hardware.
template <typename T>
counted<T> fma(counted<T> a, counted<T> b, counted<T> c) {
  detail::bump_n<T>(2);
  return counted<T>(std::fma(a.value(), b.value(), c.value()));
}

/// sqrt counts as one FP operation (SDE reports it as one FP instr).
template <typename T>
counted<T> sqrt(counted<T> a) {
  detail::bump_one<T>();
  return counted<T>(std::sqrt(a.value()));
}

template <typename T>
counted<T> abs(counted<T> a) {
  detail::bump_one<T>();
  return counted<T>(std::abs(a.value()));
}

// Transparent value extraction for plain arithmetic types, so kernels can
// be written generically over T in {float, double, counted<float>, ...}.
template <typename T>
constexpr T raw(T v) {
  return v;
}
template <typename T>
constexpr T raw(counted<T> v) {
  return v.value();
}

/// scalar_t<T>: the underlying arithmetic type of T (identity for plain
/// arithmetic types, value_type for counted<>).
template <typename T>
struct scalar {
  using type = T;
};
template <typename T>
struct scalar<counted<T>> {
  using type = T;
};
template <typename T>
using scalar_t = typename scalar<T>::type;

}  // namespace fpr::counters
