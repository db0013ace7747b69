// Former names of the one GEMM + ReduceScatter kernel (kernels/gemm_rs.h),
// kept for perfbench/kernels.cc, which spells them.
#pragma once

#include "tilelink/kernels/gemm_rs.h"

namespace tilelink::tl {

using GemmHierRs = GemmRs;
using GemmHierRsConfig = GemmRsConfig;

}  // namespace tilelink::tl
