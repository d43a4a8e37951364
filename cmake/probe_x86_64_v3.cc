// Configure-time probe: compiled with -march=x86-64-v3 and run on the build host.
// It exits 0 only if the host has the v3 features, so a compiler without the
// level, a crash or a missing feature all keep the build at baseline x86-64.
#include "host_x86_64_v3.h"

int main() { return HostSupportsX8664V3() ? 0 : 1; }
