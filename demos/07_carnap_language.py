"""The three-subject, two-binary-attribute language.

Sixty-four states, a symmetry group of order 48, four orbits, and twelve
self-dual simple propositions forming a single orbit.  The counted
content of a simple is printed next to the figure reported in the
literature, which direct counting does not reproduce.
"""

from sheafnet.carnap import (
    build_language,
    build_symmetry_group,
    orbit_report,
    simple_content_report,
    simple_propositions,
)

lang = build_language(3, [2, 2])
group = build_symmetry_group(lang)
report = orbit_report(lang, group)

print(f"states: {len(lang.states)}   propositions: 2^{len(lang.states)}")
print(f"group order: {group.order}")
for size, stab, label, members in report.orbits:
    print(f"  type {label}: orbit of {size:2d}, stabilizer order {stab:2d}, "
          f"example {lang.state_label(members[0])}")

simples = simple_propositions(lang)
print(f"simple propositions: {len(simples)}  "
      f"({', '.join(s.label for s in simples[:6])}, ...)")
print("content of a simple:", simple_content_report(lang, simples))
