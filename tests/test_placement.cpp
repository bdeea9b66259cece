// Incremental annealing placement against its reference oracle.
//
// `reference_place` is the original full-recompute annealer: every move
// re-evaluates the HPWL of every net on both swapped cells and scans for
// shared nets pairwise. fpga::place keeps cached bounding boxes instead, and
// must reproduce the oracle bit for bit (positions, total HPWL and move
// count) on the Polybench netlists at both flows' efforts and on seeded
// synthetic netlists built to hit the incremental update's corner cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "fpga/board.hpp"
#include "fpga/netlist.hpp"
#include "fpga/placement.hpp"
#include "fpga/vivado_like.hpp"
#include "hls/binding.hpp"
#include "hls/directives.hpp"
#include "hls/scheduler.hpp"
#include "kernels/polybench.hpp"
#include "sim/interpreter.hpp"
#include "sim/stimulus.hpp"
#include "util/rng.hpp"

using namespace powergear;

namespace {

/// The full-recompute annealer fpga::place replaced, kept as the oracle.
fpga::Placement reference_place(const fpga::Netlist& nl,
                                const fpga::PlacementOptions& opts) {
    using fpga::Cell;
    using fpga::Net;
    using fpga::net_hpwl;
    fpga::Placement p;
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

    // Incident nets per cell for delta evaluation.
    std::vector<std::vector<int>> nets_of_cell(static_cast<std::size_t>(n));
    for (int k = 0; k < static_cast<int>(nl.nets.size()); ++k) {
        const Net& net = nl.nets[static_cast<std::size_t>(k)];
        nets_of_cell[static_cast<std::size_t>(net.driver)].push_back(k);
        for (int s : net.sinks)
            nets_of_cell[static_cast<std::size_t>(s)].push_back(k);
    }

    auto cost_around = [&](int a, int b) {
        double c = 0.0;
        for (int k : nets_of_cell[static_cast<std::size_t>(a)])
            c += net_hpwl(nl, p, nl.nets[static_cast<std::size_t>(k)]);
        for (int k : nets_of_cell[static_cast<std::size_t>(b)]) {
            // Avoid double counting nets touching both cells.
            bool shared = false;
            for (int ka : nets_of_cell[static_cast<std::size_t>(a)])
                if (ka == k) {
                    shared = true;
                    break;
                }
            if (!shared) c += net_hpwl(nl, p, nl.nets[static_cast<std::size_t>(k)]);
        }
        return c;
    };

    const std::int64_t total_moves =
        static_cast<std::int64_t>(opts.moves_per_cell) * std::max(1, n);
    double temp = opts.initial_temp;
    const double cooling =
        total_moves > 0 ? std::pow(0.01 / opts.initial_temp,
                                   1.0 / static_cast<double>(total_moves))
                        : 1.0;

    for (std::int64_t m = 0; m < total_moves && n >= 2; ++m) {
        const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
        if (a == b) b = (b + 1) % n;
        const double before = cost_around(a, b);
        std::swap(p.pos[static_cast<std::size_t>(a)], p.pos[static_cast<std::size_t>(b)]);
        const double after = cost_around(a, b);
        const double delta = after - before;
        if (delta > 0.0 && rng.next_double() >= std::exp(-delta / std::max(1e-9, temp)))
            std::swap(p.pos[static_cast<std::size_t>(a)],
                      p.pos[static_cast<std::size_t>(b)]); // reject
        temp *= cooling;
        ++p.moves_evaluated;
    }

    p.total_hpwl = 0.0;
    for (const Net& net : nl.nets) p.total_hpwl += net_hpwl(nl, p, net);
    return p;
}

bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_matches_oracle(const fpga::Netlist& nl, const fpga::PlacementOptions& opts,
                           const std::string& what) {
    const fpga::Placement got = fpga::place(nl, opts);
    const fpga::Placement ref = reference_place(nl, opts);
    EXPECT_EQ(got.grid_w, ref.grid_w) << what;
    EXPECT_EQ(got.grid_h, ref.grid_h) << what;
    EXPECT_EQ(got.pos, ref.pos) << what;
    EXPECT_TRUE(same_bits(got.total_hpwl, ref.total_hpwl))
        << what << ": " << got.total_hpwl << " vs " << ref.total_hpwl;
    EXPECT_EQ(got.moves_evaluated, ref.moves_evaluated) << what;
}

/// The netlist of one Polybench design point, as the board flow builds it.
fpga::Netlist polybench_netlist(const std::string& kernel, const hls::Directives& dirs) {
    const ir::Function fn = kernels::build_polybench(kernel, 8);
    sim::Interpreter interp(fn);
    sim::apply_stimulus(interp, fn, {});
    const sim::Trace trace = interp.run();
    const hls::ElabGraph elab = hls::elaborate(fn, dirs);
    const hls::Schedule sched = hls::schedule(fn, elab);
    const hls::Binding binding = hls::bind(fn, elab, sched);
    const sim::ActivityOracle oracle(fn, elab, trace, sched.total_latency);
    return fpga::build_netlist(fn, elab, binding, oracle);
}

/// Seeded random netlist: `cells` cells of the given area, `nets` nets
/// whose pin counts are drawn from [min_pins, max_pins] over distinct cells.
fpga::Netlist synthetic(std::uint64_t seed, int cells, int area, int nets,
                        int min_pins, int max_pins) {
    util::Rng rng(seed);
    fpga::Netlist nl;
    for (int c = 0; c < cells; ++c) {
        fpga::Cell cell;
        cell.area = area;
        nl.cells.push_back(cell);
    }
    std::vector<int> ids(static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c) ids[static_cast<std::size_t>(c)] = c;
    for (int k = 0; k < nets; ++k) {
        const int pins = static_cast<int>(
            rng.next_range(min_pins, std::min(max_pins, cells)));
        rng.shuffle(ids);
        fpga::Net net;
        net.driver = ids[0];
        net.sinks.assign(ids.begin() + 1, ids.begin() + pins);
        nl.nets.push_back(std::move(net));
    }
    return nl;
}

fpga::PlacementOptions effort(int moves_per_cell, std::uint64_t seed) {
    fpga::PlacementOptions o;
    o.moves_per_cell = moves_per_cell;
    o.seed = seed;
    return o;
}

} // namespace

TEST(PlacementOracle, PolybenchAtBoardAndVivadoEffort) {
    const int board = fpga::BoardOptions{}.place_moves_per_cell;
    const int vivado = fpga::VivadoOptions{}.place_moves_per_cell;
    ASSERT_EQ(board, 150);
    ASSERT_EQ(vivado, 120);
    for (const std::string& kernel : kernels::polybench_names()) {
        const ir::Function fn = kernels::build_polybench(kernel, 8);
        const std::vector<hls::Directives> points = hls::DesignSpace(fn).sample(3);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const fpga::Netlist nl = polybench_netlist(kernel, points[i]);
            const std::string what = kernel + " point " + std::to_string(i);
            expect_matches_oracle(nl, effort(board, util::hash_mix(0x1ace5eedULL, i)),
                                  what + " board");
            expect_matches_oracle(nl, effort(vivado, fpga::VivadoOptions{}.place_seed),
                                  what + " vivado");
        }
    }
}

TEST(PlacementOracle, TwoPinNets) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expect_matches_oracle(synthetic(seed, 40, 2, 60, 2, 2), effort(150, seed),
                              "two-pin seed " + std::to_string(seed));
}

TEST(PlacementOracle, NetsAboveTheSmallNetThreshold) {
    // One FSM-like net over every cell plus nets straddling the threshold.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        fpga::Netlist nl = synthetic(seed, 60, 3, 80, 2, 24);
        fpga::Net all;
        all.driver = 0;
        for (int c = 1; c < nl.num_cells(); ++c) all.sinks.push_back(c);
        nl.nets.push_back(all);
        expect_matches_oracle(nl, effort(150, seed), "large seed " + std::to_string(seed));
    }
}

TEST(PlacementOracle, EveryPinOnOneColumn) {
    // Ten cells of area 5 give a 10x10 grid whose initial slots are 0, 10,
    // 20, ...: every cell sits in column 0, and swaps keep it there, so every
    // net's x extent is a tie of all its pins throughout the run.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        fpga::Netlist nl = synthetic(seed, 10, 5, 12, 2, 10);
        const fpga::Placement p = fpga::place(nl, effort(0, seed));
        ASSERT_EQ(p.grid_w, 10);
        for (const auto& xy : p.pos) ASSERT_EQ(xy.first, 0);
        expect_matches_oracle(nl, effort(150, seed), "column seed " + std::to_string(seed));
    }
}

TEST(PlacementOracle, CrowdedGridWithCoincidentPins) {
    // Zero-area cells collapse onto a 2x2 grid: many cells share a site,
    // swaps often move nothing, and edges hold many tied pins.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const fpga::Netlist nl = synthetic(seed, 30, 0, 25, 2, 20);
        expect_matches_oracle(nl, effort(150, seed), "crowded seed " + std::to_string(seed));
    }
}

TEST(PlacementOracle, CellWithSeveralPinsOnOneNet) {
    // The oracle counts a net once per pin a cell has on it; a driver that
    // is also a sink, and a repeated sink, must weigh the same here.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        fpga::Netlist nl = synthetic(seed, 30, 2, 40, 2, 12);
        for (std::size_t k = 0; k < nl.nets.size(); k += 3) {
            fpga::Net& net = nl.nets[k];
            net.sinks.push_back(net.driver);
            net.sinks.push_back(net.sinks.front());
        }
        expect_matches_oracle(nl, effort(150, seed), "repeated seed " + std::to_string(seed));
    }
}

TEST(PlacementOracle, DegenerateNetlists) {
    expect_matches_oracle(synthetic(3, 2, 1, 1, 2, 2), effort(150, 3), "two cells");
    expect_matches_oracle(synthetic(4, 2, 1, 3, 2, 2), effort(150, 4), "two cells, three nets");
    expect_matches_oracle(synthetic(5, 1, 1, 0, 2, 2), effort(150, 5), "one cell");
    expect_matches_oracle(synthetic(6, 12, 2, 0, 2, 2), effort(150, 6), "no nets");
    expect_matches_oracle(synthetic(7, 40, 2, 50, 2, 12), effort(0, 7), "no moves");
}
