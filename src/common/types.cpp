#include "common/types.hpp"

namespace cgct {

std::string_view
requestTypeName(RequestType type)
{
    switch (type) {
      case RequestType::Read:              return "Read";
      case RequestType::ReadExclusive:     return "ReadExclusive";
      case RequestType::Upgrade:           return "Upgrade";
      case RequestType::Ifetch:            return "Ifetch";
      case RequestType::Writeback:         return "Writeback";
      case RequestType::Prefetch:          return "Prefetch";
      case RequestType::PrefetchExclusive: return "PrefetchExclusive";
      case RequestType::Dcbz:              return "Dcbz";
      case RequestType::Dcbf:              return "Dcbf";
      case RequestType::Dcbi:              return "Dcbi";
    }
    return "Unknown";
}

std::string_view
cpuOpKindName(CpuOpKind kind)
{
    switch (kind) {
      case CpuOpKind::Ifetch: return "Ifetch";
      case CpuOpKind::Load:   return "Load";
      case CpuOpKind::Store:  return "Store";
      case CpuOpKind::Dcbz:   return "Dcbz";
      case CpuOpKind::Dcbf:   return "Dcbf";
      case CpuOpKind::Dcbi:   return "Dcbi";
    }
    return "Unknown";
}

} // namespace cgct
