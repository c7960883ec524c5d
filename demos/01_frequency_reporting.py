"""Color frequency reporting basics.

A colored point set in the plane, a dominance query, and the answer: one
(color, count) pair per color present in the range. Colors absent from the
range never show up and never cost anything.
"""

import colorfreq as cf

# Four red and three blue points sit inside the query, one green and one
# purple point outside it.
points = [
    ((1.0, 1.0), "red"), ((2.0, 8.0), "red"), ((5.0, 5.0), "red"), ((9.0, 2.0), "red"),
    ((3.0, 3.0), "blue"), ((6.0, 7.0), "blue"), ((8.0, 9.0), "blue"),
    ((12.0, 4.0), "green"),
    ((4.0, 12.0), "purple"),
]
labels = sorted({lab for _, lab in points})
ids = {lab: i for i, lab in enumerate(labels)}
ps = cf.PointSet.from_points([(c, ids[lab]) for c, lab in points], labels=labels)

tree = cf.build_dominance(ps, d=2, s=2)
query = cf.BoxQuery.dominance((10.0, 10.0))

print("query: x <= 10, y <= 10")
for color, count in sorted(tree.query(query)):
    print(f"  ({ps.label_of(color)}, {count})")

print("\nempty corner:", tree.query(cf.BoxQuery.dominance((0.0, 0.0))))

# The same structure answers weighted queries; counts are just weight 1.
session = tree.new_session()
answer = tree.query(query, session)
print(f"\nanswered with {session.substructure_queries} substructure queries "
      f"and {session.probes} index probes for k={len(answer)} colors")

# build_1d gives the d = 1 tree, which answers prefixes; an interval
# is a box with a two-sided axis 0, as in any dimension.
line = [(1.0, 0), (3.0, 0), (5.0, 0), (2.0, 1), (7.0, 1)]
f = cf.build_1d(line)
print("\n1-D prefix  x<=5:", sorted(f.query([5.0])))
box = cf.build_box(line, bounded_axes=(0,))
print("1-D interval [2,6]:", sorted(box.query(cf.BoxQuery.interval(2.0, 6.0))))
