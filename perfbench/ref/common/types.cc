#include "common/types.hh"

namespace mcd
{

const char *
domainName(DomainId id)
{
    switch (id) {
      case DomainId::FrontEnd:      return "front-end";
      case DomainId::Integer:       return "integer";
      case DomainId::FloatingPoint: return "floating-point";
      case DomainId::LoadStore:     return "load-store";
      case DomainId::External:      return "external";
    }
    return "unknown";
}

} // namespace mcd
