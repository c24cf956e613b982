#include "baselines/systems.hh"

namespace pluto::baselines
{

HostSpec
cpuSpec()
{
    return {"CPU (Xeon Gold 5118, SSE)", 30.0, 485.0};
}

HostSpec
gpuSpec()
{
    return {"GPU (RTX 3080 Ti)", 350.0, 628.0};
}

} // namespace pluto::baselines
