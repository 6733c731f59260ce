#include "coherence/protocol.hpp"

#include "common/log.hpp"

namespace cgct {

LineSnoopOutcome
applyLineSnoop(LineState current, SnoopKind kind)
{
    LineSnoopOutcome out;
    out.before = current;
    out.hadCopy = isValid(current);
    out.next = current;
    if (!out.hadCopy || kind == SnoopKind::None)
        return out;

    switch (kind) {
      case SnoopKind::Read:
        // Dirty owners supply data and retain ownership (M->O, O->O);
        // a clean exclusive holder supplies data and drops to Shared.
        switch (current) {
          case LineState::Modified:
          case LineState::Owned:
            out.next = LineState::Owned;
            out.suppliedData = true;
            break;
          case LineState::Exclusive:
            out.next = LineState::Shared;
            out.suppliedData = true;
            break;
          case LineState::Shared:
            out.next = LineState::Shared;
            break;
          default:
            break;
        }
        break;

      case SnoopKind::ReadInvalidate:
        // Requester takes the only copy; dirty data moves cache-to-cache.
        out.suppliedData = isDirty(current) ||
                           current == LineState::Exclusive;
        out.next = LineState::Invalid;
        break;

      case SnoopKind::Invalidate:
        // No data transfer; dirty data would be superseded (upgrade/DCBZ
        // overwrite the whole line) so it is simply dropped.
        out.next = LineState::Invalid;
        break;

      case SnoopKind::Flush:
        out.wroteBack = isDirty(current);
        out.next = LineState::Invalid;
        break;

      case SnoopKind::None:
        break;
    }
    return out;
}

LineState
grantedState(RequestType type, bool other_had_copy)
{
    switch (type) {
      case RequestType::Read:
      case RequestType::Prefetch:
        return other_had_copy ? LineState::Shared : LineState::Exclusive;
      case RequestType::Ifetch:
        // Instruction lines are read-only; Shared keeps them simple even
        // when no other cache holds the line.
        return LineState::Shared;
      case RequestType::ReadExclusive:
      case RequestType::PrefetchExclusive:
      case RequestType::Upgrade:
      case RequestType::Dcbz:
        return LineState::Modified;
      case RequestType::Dcbf:
      case RequestType::Dcbi:
      case RequestType::Writeback:
        return LineState::Invalid;
    }
    return LineState::Invalid;
}

} // namespace cgct
