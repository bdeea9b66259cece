// Working DFG representation shared by the graph-construction passes.
//
// The flow (Fig. 2 of the paper) is: primitive DFG -> buffer insertion ->
// datapath merging -> graph trimming -> feature annotation. WorkGraph keeps
// enough provenance (which operator instances a node represents, which
// consumer pins an edge feeds) for the feature pass to query the activity
// oracle after arbitrary merges and bypasses.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graphgen/graph.hpp"
#include "hls/elaborate.hpp"

namespace powergear::graphgen {

struct WorkNode {
    bool is_buffer = false;
    ir::Opcode op = ir::Opcode::Const;  ///< for operation nodes
    int bitwidth = 32;
    std::int64_t imm = 0;               ///< Const value (merging key)
    int array = -1;                     ///< buffer: ArrayDecl id
    int bank = 0;                       ///< buffer: partition bank
    std::vector<int> elab_ops;          ///< merged operator instances
    bool removed = false;
};

struct WorkEdge {
    int src = -1;
    int dst = -1;
    /// (consumer elab op, operand index) pins this edge feeds — provenance
    /// for sink-direction activity stats.
    std::vector<std::pair<int, int>> consumer_pins;
    /// For buffer edges: the memory operator instances on the moving side.
    std::vector<int> mem_ops;
    bool removed = false;
};

struct WorkGraph {
    const ir::Function* fn = nullptr;
    const hls::ElabGraph* elab = nullptr;
    std::vector<WorkNode> nodes;
    std::vector<WorkEdge> edges;
    std::vector<int> node_of_op; ///< elab op id -> current node (-1 removed)

    int live_nodes() const;

    /// Drop removed nodes/edges and coalesce parallel edges (same src/dst),
    /// merging their provenance lists.
    void compact();
};

/// Pass 1: primitive DFG — one node per operator instance, one edge per SSA
/// dependence (Ret is never instantiated).
WorkGraph build_dfg(const ir::Function& fn, const hls::ElabGraph& elab);

} // namespace powergear::graphgen
