// The original per-element loops of the six restructured codec kernel
// families (codec_kernels.h), verbatim. They are the oracle the kernel
// parity tests compare codec_kernels.cpp against; no codec calls them.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "compress/codec_kernels.h"
#include "compress/fpz/predictor.h"
#include "compress/grib2/wavelet.h"

namespace cesm::comp::kernels::reference {

namespace {

template <typename U>
void lorenzo_residuals_impl(const U* q, U* zz, Dims d) {
  const std::size_t n = d.planes * d.rows * d.cols;
  const LorenzoPredictor<U> pred(std::span<const U>(q, n), d.rows, d.cols, d.planes);
  for (std::size_t i = 0; i < n; ++i) {
    zz[i] = zigzag_encode(static_cast<U>(q[i] - pred.predict(i)));
  }
}

template <typename U>
void lorenzo_reconstruct_impl(U* q, const U* zz, Dims d) {
  const std::size_t n = d.planes * d.rows * d.cols;
  const LorenzoPredictor<U> pred(std::span<const U>(q, n), d.rows, d.cols, d.planes);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = static_cast<U>(pred.predict(i) + zigzag_decode(zz[i]));
  }
}

}  // namespace

void lorenzo_residuals_u32(const std::uint32_t* q, std::uint32_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
void lorenzo_residuals_u64(const std::uint64_t* q, std::uint64_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
void lorenzo_reconstruct_u32(std::uint32_t* q, const std::uint32_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}
void lorenzo_reconstruct_u64(std::uint64_t* q, const std::uint64_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}

namespace {

template <typename T>
void sort_perm_impl(const T* data, std::uint32_t* perm, std::size_t len) {
  std::iota(perm, perm + len, 0u);
  std::stable_sort(perm, perm + len,
                   [&](std::uint32_t a, std::uint32_t b) { return data[a] < data[b]; });
}

}  // namespace

void sort_perm_f32(const float* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}
void sort_perm_f64(const double* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}

void apax_quantize(const double* src, std::size_t first, std::size_t len, double scale,
                   unsigned bits, std::size_t extra, std::uint32_t* codes) {
  for (std::size_t i = first; i < len; ++i) {
    const unsigned b = bits + ((i - first) < extra ? 1 : 0);
    const double q = static_cast<double>((1u << (b - 1)) - 1);
    const auto limit = static_cast<std::int32_t>(q);
    const double d = src[i] / scale * q;
    // Non-finite samples reproduce llround's glibc INT64_MIN narrowed to 0.
    auto m = std::isfinite(d) ? static_cast<std::int32_t>(std::llround(d)) : 0;
    m = std::clamp(m, -limit, limit);
    codes[i - first] = static_cast<std::uint32_t>(m + limit);
  }
}

void grib2_quantize(const float* data, const std::uint8_t* valid, std::int64_t* q,
                    std::size_t n, double lo, double step) {
  for (std::size_t i = 0; i < n; ++i) {
    if (valid != nullptr && !valid[i]) {
      q[i] = 0;
      continue;
    }
    const double dv = (static_cast<double>(data[i]) - lo) / step;
    // Codecs reject non-finite data before quantizing; keep the kernel
    // total (and equal to the restructured one) anyway.
    q[i] = std::isfinite(dv) ? std::llround(dv) : 0;
  }
}

void dwt53_cols(std::int64_t* data, std::size_t cols, std::size_t r_lim,
                std::size_t c_lim, bool inverse) {
  std::vector<std::int64_t> buf(r_lim), tmp(r_lim);
  for (std::size_t c = 0; c < c_lim; ++c) {
    for (std::size_t r = 0; r < r_lim; ++r) buf[r] = data[r * cols + c];
    if (inverse) {
      dwt53_inverse_1d(buf, tmp);
    } else {
      dwt53_forward_1d(buf, tmp);
    }
    for (std::size_t r = 0; r < r_lim; ++r) data[r * cols + c] = tmp[r];
  }
}

}  // namespace cesm::comp::kernels::reference
