#include "fpga/placement.hpp"

#include <algorithm>
#include <climits>
#include <cmath>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace powergear::fpga {

namespace {

/// Nets on fewer cells than this are re-scanned on every move that touches
/// them; larger nets keep edge counts and update their box in O(1).
constexpr int kSmallNetCells = 8;

/// A net's bounding box plus, per edge, how many of its cells sit on it.
struct Box {
    int xmin = INT_MAX, xmax = INT_MIN, ymin = INT_MAX, ymax = INT_MIN;
    int nxmin = 0, nxmax = 0, nymin = 0, nymax = 0;

    int hpwl() const { return (xmax - xmin) + (ymax - ymin); }
};

/// Move one cell from coordinate `from` to `to` on one axis of a box's
/// [lo, hi] span (VPR's edge-count update). Returns false when the last cell
/// leaves an edge: the new edge is unknown and the net must be re-scanned.
bool shift_axis(int& lo, int& nlo, int& hi, int& nhi, int from, int to) {
    if (to < from) {
        if (from == hi) {
            if (nhi == 1) return false;
            --nhi;
        }
        if (to < lo) {
            lo = to;
            nlo = 1;
        } else if (to == lo) {
            ++nlo;
        }
    } else if (to > from) {
        if (from == lo) {
            if (nlo == 1) return false;
            --nlo;
        }
        if (to > hi) {
            hi = to;
            nhi = 1;
        } else if (to == hi) {
            ++nhi;
        }
    }
    return true;
}

/// One net incident on a cell: how many of the net's pins the cell owns,
/// and where the net's distinct cells sit in the flattened cell list.
struct Incidence {
    int net;
    int pins;
    int begin, end;
};

} // namespace

double net_hpwl(const Netlist& nl, const Placement& p, const Net& net) {
    (void)nl;
    int minx = p.pos[static_cast<std::size_t>(net.driver)].first;
    int maxx = minx;
    int miny = p.pos[static_cast<std::size_t>(net.driver)].second;
    int maxy = miny;
    for (int s : net.sinks) {
        const auto [x, y] = p.pos[static_cast<std::size_t>(s)];
        minx = std::min(minx, x);
        maxx = std::max(maxx, x);
        miny = std::min(miny, y);
        maxy = std::max(maxy, y);
    }
    return static_cast<double>(maxx - minx) + static_cast<double>(maxy - miny);
}

Placement place(const Netlist& nl, const PlacementOptions& opts) {
    const obs::Scope obs_scope(obs::Phase::Place);
    Placement p;
    const int n = nl.num_cells();
    // Side proportional to sqrt of total area, with slack for routability.
    int total_area = 0;
    for (const Cell& c : nl.cells) total_area += c.area;
    const int side = std::max(
        2, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(total_area) * 1.8))));
    p.grid_w = side;
    p.grid_h = side;
    p.pos.resize(static_cast<std::size_t>(n));

    util::Rng rng(opts.seed);
    // Initial placement: shuffled scan order.
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);
    for (int i = 0; i < n; ++i) {
        const int slot = static_cast<int>(
            (static_cast<std::int64_t>(i) * side * side) / std::max(1, n));
        p.pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = {
            slot % side, slot / side};
    }

    // Distinct cells of every net, flattened (driver first), and the nets
    // incident on every cell with the cell's pin count on each. A box only
    // depends on where the distinct cells are, so edge counts count cells:
    // swapping two cells of one net changes neither its box nor its counts.
    const int num_nets = static_cast<int>(nl.nets.size());
    std::vector<int> net_cell;
    std::vector<std::vector<Incidence>> nets_of_cell(static_cast<std::size_t>(n));
    // Extent of cells [begin, end) of net_cell, without edge counts.
    auto extent = [&](int begin, int end) {
        Box b;
        for (int i = begin; i < end; ++i) {
            const auto [x, y] =
                p.pos[static_cast<std::size_t>(net_cell[static_cast<std::size_t>(i)])];
            b.xmin = std::min(b.xmin, x);
            b.xmax = std::max(b.xmax, x);
            b.ymin = std::min(b.ymin, y);
            b.ymax = std::max(b.ymax, y);
        }
        return b;
    };
    // Extent of cells [begin, end) of net_cell, with edge counts.
    auto scan = [&](int begin, int end) {
        Box b;
        for (int i = begin; i < end; ++i) {
            const auto [x, y] =
                p.pos[static_cast<std::size_t>(net_cell[static_cast<std::size_t>(i)])];
            if (x < b.xmin) b.xmin = x, b.nxmin = 1;
            else if (x == b.xmin) ++b.nxmin;
            if (x > b.xmax) b.xmax = x, b.nxmax = 1;
            else if (x == b.xmax) ++b.nxmax;
            if (y < b.ymin) b.ymin = y, b.nymin = 1;
            else if (y == b.ymin) ++b.nymin;
            if (y > b.ymax) b.ymax = y, b.nymax = 1;
            else if (y == b.ymax) ++b.nymax;
        }
        return b;
    };
    std::vector<Box> box(static_cast<std::size_t>(num_nets));
    for (int k = 0; k < num_nets; ++k) {
        const Net& net = nl.nets[static_cast<std::size_t>(k)];
        const int begin = static_cast<int>(net_cell.size());
        auto add_pin = [&](int c) {
            std::vector<Incidence>& inc = nets_of_cell[static_cast<std::size_t>(c)];
            if (!inc.empty() && inc.back().net == k) {
                ++inc.back().pins;
            } else {
                inc.push_back({k, 1, begin, 0});
                net_cell.push_back(c);
            }
        };
        add_pin(net.driver);
        for (int s : net.sinks) add_pin(s);
        const int end = static_cast<int>(net_cell.size());
        for (int i = begin; i < end; ++i)
            nets_of_cell[static_cast<std::size_t>(net_cell[static_cast<std::size_t>(i)])]
                .back()
                .end = end;
        box[static_cast<std::size_t>(k)] = scan(begin, end);
    }
    // Box of an incident net once its cell has moved from `from` to `to`
    // (positions already hold the move). Small nets are re-scanned; large
    // ones shift their cached box and re-scan only when an edge empties.
    auto moved_box = [&](const Incidence& inc, std::pair<int, int> from,
                         std::pair<int, int> to) {
        if (inc.end - inc.begin < kSmallNetCells) return extent(inc.begin, inc.end);
        Box b = box[static_cast<std::size_t>(inc.net)];
        if (!shift_axis(b.xmin, b.nxmin, b.xmax, b.nxmax, from.first, to.first) ||
            !shift_axis(b.ymin, b.nymin, b.ymax, b.nymax, from.second, to.second))
            b = scan(inc.begin, inc.end);
        return b;
    };

    const std::int64_t total_moves =
        static_cast<std::int64_t>(opts.moves_per_cell) * std::max(1, n);
    double temp = opts.initial_temp;
    const double cooling =
        total_moves > 0 ? std::pow(0.01 / opts.initial_temp,
                                   1.0 / static_cast<double>(total_moves))
                        : 1.0;

    // A net holding both swapped cells keeps its cell positions, so its box
    // and delta are exactly unchanged: each move stamps the nets of a, marks
    // the stamped nets of b as shared in O(deg), and skips them. HPWL is
    // integral on the grid, so the summed delta is the exact integer the old
    // full recompute `after - before` gave, and the same moves draw from rng.
    std::vector<std::int64_t> stamp(static_cast<std::size_t>(num_nets), -1);
    for (std::int64_t m = 0; m < total_moves && n >= 2; ++m) {
        const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (a == b) b = (b + 1) % n;
        const std::vector<Incidence>& nets_a = nets_of_cell[static_cast<std::size_t>(a)];
        const std::vector<Incidence>& nets_b = nets_of_cell[static_cast<std::size_t>(b)];
        const std::int64_t mine = 2 * m, shared = 2 * m + 1;
        for (const Incidence& inc : nets_a) stamp[static_cast<std::size_t>(inc.net)] = mine;
        for (const Incidence& inc : nets_b) {
            std::int64_t& s = stamp[static_cast<std::size_t>(inc.net)];
            if (s == mine) s = shared;
        }
        const std::pair<int, int> pa = p.pos[static_cast<std::size_t>(a)];
        const std::pair<int, int> pb = p.pos[static_cast<std::size_t>(b)];
        std::swap(p.pos[static_cast<std::size_t>(a)], p.pos[static_cast<std::size_t>(b)]);
        auto for_moved_nets = [&](auto&& fn) {
            for (const Incidence& inc : nets_a)
                if (stamp[static_cast<std::size_t>(inc.net)] != shared) fn(inc, pa, pb);
            for (const Incidence& inc : nets_b)
                if (stamp[static_cast<std::size_t>(inc.net)] != shared) fn(inc, pb, pa);
        };

        std::int64_t delta_hpwl = 0;
        for_moved_nets([&](const Incidence& inc, auto from, auto to) {
            // The full recompute counted a net once per pin the cell has on it.
            delta_hpwl += static_cast<std::int64_t>(inc.pins) *
                          (moved_box(inc, from, to).hpwl() -
                           box[static_cast<std::size_t>(inc.net)].hpwl());
        });
        const double delta = static_cast<double>(delta_hpwl);
        if (delta > 0.0 && rng.next_double() >= std::exp(-delta / std::max(1e-9, temp))) {
            std::swap(p.pos[static_cast<std::size_t>(a)],
                      p.pos[static_cast<std::size_t>(b)]); // reject
        } else {
            // Few moves are accepted, so recomputing their boxes here is
            // cheaper than buffering every evaluated box.
            for_moved_nets([&](const Incidence& inc, auto from, auto to) {
                box[static_cast<std::size_t>(inc.net)] = moved_box(inc, from, to);
            });
        }
        temp *= cooling;
        ++p.moves_evaluated;
    }
    obs::add(obs::Phase::Place, "moves", static_cast<std::uint64_t>(p.moves_evaluated));

    p.total_hpwl = 0.0;
    for (const Net& net : nl.nets) p.total_hpwl += net_hpwl(nl, p, net);
    return p;
}

} // namespace powergear::fpga
