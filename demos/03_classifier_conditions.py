"""Finite classifiers and the two soundness conditions.

A classifier is a finite deterministic machine labelling every finite word
with a class.  For it to present a congruence that respects a language of
infinite words, two things must hold:

  condition 1 - equivalent words stay equivalent under concatenation on
                either side (checked exactly, from the machine alone);
  condition 2 - replacing every factor of an infinite product by an
                equivalent factor never changes membership (checked against
                a language oracle over bounded factor sequences).

This script checks both, repairs a machine that fails the first, and looks
at the bounded class partitions of three languages.
"""

from omegaword import (arnold_classes_bounded, automaton, check_condition1,
                       check_condition2_bounded, classifier,
                       format_classifier, get_oracle, lemma_repair,
                       profile_kernel_classifier, right_classes_bounded)

# --- a machine that is not right-invariant ----------------------------------

# q0 and q1 share class A, but an `a` step separates them (A vs B):
# eps ~ a, yet eps.a and a.a land in different classes.
broken = classifier("ab", ["q0", "q1", "q2"], "q0",
                    {("q0", "a"): "q1", ("q0", "b"): "q0",
                     ("q1", "a"): "q2", ("q1", "b"): "q1",
                     ("q2", "a"): "q2", ("q2", "b"): "q2"},
                    {"q0": "A", "q1": "A", "q2": "B"})

violation = check_condition1(broken)
print("violation found:")
print("  side:          ", violation.side)
print("  words:         ", violation.u.text(), "~", violation.u_prime.text())
print("  context:       ", violation.w.text() or "eps")
print("  classes after: ", violation.classes_after)

# The repair merges classes until concatenation can no longer tell them
# apart; the index only ever shrinks.
repaired = lemma_repair(broken)
print("\nindex before/after repair:", broken.index, "->", repaired.index)
print(format_classifier(repaired))
assert check_condition1(repaired) is None

# --- a machine derived from an automaton ------------------------------------

# The kernel classifier identifies words with the same action on an
# automaton's states (the same transition profile).  It satisfies condition 1
# by construction and condition 2 for the automaton's own language.
a = automaton("ab", ["q0", "q1"], ["q0"], ["q1"],
              [("q0", "a", "q1"), ("q0", "b", "q0"),
               ("q1", "a", "q1"), ("q1", "b", "q0")])
kernel = profile_kernel_classifier(a)
print("\nkernel classifier of the two-state automaton: index", kernel.index)
print("condition 1:", check_condition1(kernel) or "ok")

oracle = get_oracle("P")        # lasso words with infinitely many a
report = check_condition2_bounded(kernel, oracle, word_bound=3, cycle_bound=2)
print("condition 2 (bounded):", report or "ok")

# --- bounded class partitions ----------------------------------------------

# For a language with no finite classifier at all, the two-sided (context)
# classes still make sense when computed over bounded words and contexts.
u_oracle = get_oracle("U")      # unbounded a-runs between b's
part = arnold_classes_bounded(u_oracle, word_bound=3, context_bound=2)
print("\ntwo-sided classes of U on words up to length 3:")
for group in part.classes:
    print("   {", ", ".join(w.text() or "eps" for w in group), "}")

# With a neutral letter the classes ignore it: the padding words 1, 11 sit
# with the empty word, and 1a, a1 with a.
part = arnold_classes_bounded(get_oracle("Uprime"), word_bound=2, context_bound=2)
print("two-sided classes of Uprime on words up to length 2:")
for group in part.classes:
    print("   {", ", ".join(w.text() or "eps" for w in group), "}")

primes = get_oracle("primes")
part = right_classes_bounded(primes, word_bound=3, context_bound=2)
print("right classes of the prime-runs language:", len(part.classes),
      "(every short word is equivalent to every other)")
