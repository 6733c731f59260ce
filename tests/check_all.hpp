/**
 * @file
 * The invariant checker's whole-machine sweep (InvariantChecker::checkAll:
 * L1 inclusion, then invariants A-E on every live region) for tests that
 * hold their nodes directly or through a System. The checker needs only
 * the configuration and the nodes, so no System is required. Also the
 * side-effect-free L2 state probe those tests assert on.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/invariants.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"

namespace cgct {

/** @p node's L2 state for @p addr, touching nothing. */
inline LineState
l2State(const Node &node, Addr addr)
{
    const CacheLine *line = node.l2().lookup(addr);
    return line ? line->state : LineState::Invalid;
}

/** checkAll over @p nodes, which must be in CPU order. */
inline std::string
checkAll(const SystemConfig &config,
         const std::vector<std::unique_ptr<Node>> &nodes)
{
    std::vector<const Node *> view;
    for (const auto &node : nodes)
        view.push_back(node.get());
    return InvariantChecker(config, view).checkAll();
}

/** checkAll over every node of @p sys. */
inline std::string
checkAll(System &sys)
{
    std::vector<const Node *> view;
    for (unsigned i = 0; i < sys.numCpus(); ++i)
        view.push_back(&sys.node(i));
    return InvariantChecker(sys.config(), view).checkAll();
}

} // namespace cgct
