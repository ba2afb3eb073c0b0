#pragma once
// The codec kernels have one build (codec_kernels.cpp, compiled at the
// project's base flags), so there is no kernel mode to select at run time.
// This stub names that build for host records that report the kernel mode.

namespace cesm::comp::simd {

enum class Mode { kPortable };

inline Mode active_mode() { return Mode::kPortable; }

inline const char* mode_name(Mode) { return "portable"; }

}  // namespace cesm::comp::simd
