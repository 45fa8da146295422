#include "obs/resource.hh"

namespace cedar::obs
{

const char *
toString(ResourceClass cls)
{
    switch (cls) {
      case ResourceClass::memory_module: return "memory_module";
      case ResourceClass::stage1_port: return "stage1_port";
      case ResourceClass::stage2_port: return "stage2_port";
      case ResourceClass::return_a_port: return "return_a_port";
      case ResourceClass::return_b_port: return "return_b_port";
      case ResourceClass::concurrency_bus: return "concurrency_bus";
      case ResourceClass::kernel_lock: return "kernel_lock";
      default: return "?";
    }
}

} // namespace cedar::obs
