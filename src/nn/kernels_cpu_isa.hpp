// Internal ISA factories for the blocked kernel table.
//
// The blocked implementations live in kernels_cpu_tiles.inl, which is
// compiled twice: once at the build's baseline ISA (kernels_cpu_generic.cpp)
// and once with AVX2+FMA enabled (kernels_cpu_avx2.cpp, x86-64 only). Each
// translation unit exports one factory returning a complete Ops table;
// kernels_cpu.cpp picks one once per process with __builtin_cpu_supports,
// so the shipped binary runs on any host while still using FMA where the
// CPU has it. The ref table is built from the picked one.
//
// Numeric note: the two tables use the same fixed reduction order, but the
// AVX2 translation unit may contract a*b+c into fused multiply-adds, so
// blocked results can differ across hosts within the documented 1e-5
// relative envelope (DESIGN.md §10). The entries the ref table takes from
// here (elementwise epilogues, segmented sums, row movers) contain no
// multiply-adds and give identical results in both translation units; the
// ref matmuls are compiled at the baseline ISA only, so ref results are
// identical on every host.
#pragma once

#include "nn/kernels_cpu.hpp"

namespace powergear::nn::kernels {

/// Blocked kernels compiled at the build's baseline ISA. Always available.
const Ops& blocked_ops_generic();

#if defined(__x86_64__)
/// Blocked kernels compiled with -mavx2 -mfma. Only call after checking
/// __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma").
const Ops& blocked_ops_avx2();
#endif

} // namespace powergear::nn::kernels
