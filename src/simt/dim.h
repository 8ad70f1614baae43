// Dimension types shared by the SIMT engine and every layer above it.
//
// `Dim3` mirrors CUDA's `dim3`: a three-component extent whose unspecified
// components default to 1, so `Dim3(128)` is a 1-D extent of 128.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace simt {

struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;

  constexpr Dim3() = default;
  constexpr Dim3(std::uint32_t x_, std::uint32_t y_ = 1, std::uint32_t z_ = 1)
      : x(x_), y(y_), z(z_) {}

  /// Total number of points in the extent.
  [[nodiscard]] constexpr std::uint64_t count() const {
    return static_cast<std::uint64_t>(x) * y * z;
  }

  /// Row-major linearization of a coordinate within this extent
  /// (x fastest), matching CUDA's thread-numbering convention.
  [[nodiscard]] constexpr std::uint64_t linear(const Dim3& p) const {
    return (static_cast<std::uint64_t>(p.z) * y + p.y) * x + p.x;
  }

  /// Inverse of linear(): recover the coordinate from a flat index.
  [[nodiscard]] constexpr Dim3 delinearize(std::uint64_t i) const {
    const std::uint32_t px = static_cast<std::uint32_t>(i % x);
    const std::uint32_t py = static_cast<std::uint32_t>((i / x) % y);
    const std::uint32_t pz = static_cast<std::uint32_t>(i / (static_cast<std::uint64_t>(x) * y));
    return {px, py, pz};
  }

  /// Component `axis`: 0 = x, 1 = y, 2 = z.
  constexpr std::uint32_t& operator[](int axis) {
    return axis == 0 ? x : axis == 1 ? y : z;
  }
  constexpr std::uint32_t operator[](int axis) const {
    return axis == 0 ? x : axis == 1 ? y : z;
  }

  /// The longest axis, ties to the lower one: the axis a launch is
  /// split along into shards or time slices.
  [[nodiscard]] constexpr int largest_axis() const {
    const int xy = y > x ? 1 : 0;
    return z > (*this)[xy] ? 2 : xy;
  }

  [[nodiscard]] constexpr bool contains(const Dim3& p) const {
    return p.x < x && p.y < y && p.z < z;
  }

  constexpr bool operator==(const Dim3&) const = default;

  [[nodiscard]] std::string to_string() const {
    return "(" + std::to_string(x) + "," + std::to_string(y) + "," +
           std::to_string(z) + ")";
  }
};

/// Ceiling division, the ubiquitous grid-size helper.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace simt
