// Umbrella header for the GPU execution simulator substrate.
#pragma once

#include "hipsim/block.h"
#include "hipsim/buffer.h"
#include "hipsim/counters.h"
#include "hipsim/device.h"
#include "hipsim/device_profile.h"
#include "hipsim/exec_ctx.h"
#include "hipsim/grid.h"
#include "hipsim/intrinsics.h"
#include "hipsim/mem_model.h"
#include "hipsim/profiler.h"
#include "hipsim/stream.h"
#include "hipsim/timing.h"
#include "hipsim/wavefront.h"
