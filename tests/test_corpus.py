"""A seeded verdict corpus: build_arc must give pairwise_simple_check's
verdict, the same arc or the same refusal, on every chain of it
(test_reference.same_verdict).

The corpus is 640 chains drawn by Hypothesis, derandomized, from the
adversarial strategies (grid chains, tiny near-collinear segments and
near-line chains, each moved by 0, 1e6 or -1e12), and 4,360 uniform
draws like the sampler's: 5,000 chains in all.  Drawing is what costs
here, and a Hypothesis chain takes about twenty times as long to draw
as a uniform one to check, so the drawn half is the smaller.  The
sweep, its monotone certificate and the pairwise reference meet on
each of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from families import uniform_draws
from test_hull import near_line
from test_reference import grid_chains, same_verdict, tiny_near_collinear

# examples of the Hypothesis half, and chains per example
EXAMPLES = 80
BATCH = 8

corpus_batches = st.sampled_from([0.0, 1e6, -1e12]).flatmap(
    lambda offset: st.lists(
        st.builds(lambda pts: [(x + offset, y + offset) for x, y in pts],
                  grid_chains | tiny_near_collinear | near_line(offset)),
        min_size=BATCH, max_size=BATCH))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          database=None)
@given(corpus_batches)
def test_build_arc_equals_pairwise_on_the_drawn_corpus(chains):
    for pts in chains:
        same_verdict(pts)


def test_build_arc_equals_pairwise_on_the_uniform_corpus():
    for pts in uniform_draws(60_000, 4_360):
        same_verdict(pts)
