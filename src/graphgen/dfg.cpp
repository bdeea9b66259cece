#include "graphgen/dfg.hpp"

#include <map>

namespace powergear::graphgen {

int WorkGraph::live_nodes() const {
    int n = 0;
    for (const WorkNode& node : nodes)
        if (!node.removed) ++n;
    return n;
}

void WorkGraph::compact() {
    std::vector<int> remap(nodes.size(), -1);
    std::vector<WorkNode> new_nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].removed) continue;
        remap[i] = static_cast<int>(new_nodes.size());
        new_nodes.push_back(std::move(nodes[i]));
    }
    nodes = std::move(new_nodes);

    std::map<std::pair<int, int>, int> seen; // (src,dst) -> new edge index
    std::vector<WorkEdge> new_edges;
    for (WorkEdge& e : edges) {
        if (e.removed) continue;
        const int s = remap[static_cast<std::size_t>(e.src)];
        const int d = remap[static_cast<std::size_t>(e.dst)];
        if (s < 0 || d < 0 || s == d) continue; // drop dangling / self loops
        auto [it, inserted] = seen.try_emplace({s, d}, static_cast<int>(new_edges.size()));
        if (inserted) {
            e.src = s;
            e.dst = d;
            new_edges.push_back(std::move(e));
        } else {
            WorkEdge& tgt = new_edges[static_cast<std::size_t>(it->second)];
            tgt.consumer_pins.insert(tgt.consumer_pins.end(),
                                     e.consumer_pins.begin(), e.consumer_pins.end());
            tgt.mem_ops.insert(tgt.mem_ops.end(), e.mem_ops.begin(), e.mem_ops.end());
        }
    }
    edges = std::move(new_edges);

    for (auto& n : node_of_op)
        if (n >= 0) n = remap[static_cast<std::size_t>(n)];
}

WorkGraph build_dfg(const ir::Function& fn, const hls::ElabGraph& elab) {
    WorkGraph g;
    g.fn = &fn;
    g.elab = &elab;
    g.node_of_op.assign(static_cast<std::size_t>(elab.num_ops()), -1);

    for (int o = 0; o < elab.num_ops(); ++o) {
        const hls::ElabOp& op = elab.ops[static_cast<std::size_t>(o)];
        WorkNode n;
        n.op = op.op;
        n.bitwidth = op.bitwidth;
        n.array = op.array;
        if (op.op == ir::Opcode::Const)
            n.imm = fn.instr(op.instr).imm;
        n.elab_ops = {o};
        g.node_of_op[static_cast<std::size_t>(o)] = static_cast<int>(g.nodes.size());
        g.nodes.push_back(std::move(n));
    }
    for (const hls::ElabEdge& e : elab.edges) {
        WorkEdge we;
        we.src = g.node_of_op[static_cast<std::size_t>(e.src)];
        we.dst = g.node_of_op[static_cast<std::size_t>(e.dst)];
        we.consumer_pins.emplace_back(e.dst, e.operand_index);
        g.edges.push_back(std::move(we));
    }
    return g;
}

} // namespace powergear::graphgen
