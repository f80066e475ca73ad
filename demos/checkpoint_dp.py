"""Walk through the tree-decomposition dynamic program on a small tree.

Builds the nice decomposition, prints its node structure, and runs the
checkpoint-sequence solver with growing checkpoint budgets to show the
answer improving monotonically until it certifies against the exact
search.
"""
from coordmp import (
    Graph,
    Instance,
    Robot,
    build_nice_td,
    solve_exact,
    solve_twdp,
)


def main():
    # A spider: three legs of length 2 joined at vertex 0.
    g = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    inst = Instance(g, (Robot(0, 2, 4), Robot(1, 4, 2)))
    terminals = frozenset({2, 4})

    td = build_nice_td(g, terminals)
    kinds = {}
    for node in td.nodes.values():
        kinds[node.kind] = kinds.get(node.kind, 0) + 1
    print(f"nice decomposition: width {td.width} "
          f"(bare graph width {td.base_width}), nodes by kind: {kinds}")

    oracle = solve_exact(inst)
    print(f"exact search optimum: {oracle.energy}")
    for budget in (10, 12, 14, 16):
        res = solve_twdp(inst, budget, entry_cap=2_000_000)
        shown = res.energy if res.energy is not None else "-"
        print(f"checkpoint budget {budget:>2}: energy {shown} ({res.status})")


if __name__ == "__main__":
    main()
