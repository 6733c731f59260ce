/**
 * @file
 * The invariant checker's whole-machine sweep (InvariantChecker::checkAll:
 * L1 inclusion, then invariants A-E on every live region) for tests that
 * hold their nodes directly or through a System. The checker needs only
 * the configuration and the nodes, so no System is required.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/invariants.hpp"
#include "sim/node.hpp"
#include "sim/system.hpp"

namespace cgct {

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
