#include "workload/micro_op.hh"

namespace mcd
{

bool
isFpClass(OpClass cls)
{
    switch (cls) {
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
      case OpClass::FpSqrt:
        return true;
      default:
        return false;
    }
}

bool
isMemClass(OpClass cls)
{
    switch (cls) {
      case OpClass::Load:
      case OpClass::FpLoad:
      case OpClass::Store:
      case OpClass::FpStore:
        return true;
      default:
        return false;
    }
}

bool
isControlClass(OpClass cls)
{
    switch (cls) {
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

bool
isLoadClass(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::FpLoad;
}

bool
isStoreClass(OpClass cls)
{
    return cls == OpClass::Store || cls == OpClass::FpStore;
}

} // namespace mcd
