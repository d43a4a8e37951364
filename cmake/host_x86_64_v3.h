// Whether the running host has the x86-64-v3 features a -march=x86-64-v3 build
// needs. The configure-time probe (probe_x86_64_v3.cc, run by the root
// CMakeLists.txt) and util_test's Build.TargetMatchesHostProbe share this one
// check. The names are the ones every supported GCC and Clang accept; the other
// v3 members (F16C, LZCNT, MOVBE) ship on every CPU that has AVX2, BMI2 and FMA.
// "avx" also requires the OS to save the YMM state.
#pragma once

inline bool HostSupportsX8664V3() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx") && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2") &&
         __builtin_cpu_supports("fma") && __builtin_cpu_supports("popcnt") &&
         __builtin_cpu_supports("sse4.2");
}
