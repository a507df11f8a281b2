"""Doctored binomial blocks for the lemma grids, for the tests and their child processes.

It imports nothing but the standard library and zsr, so that a child Python
started without site can use it too.
"""

from math import log2

from zsr import lemmas


def doctored_grid_parts(doctored):
    """The (name, replacement) of each part of lemmas that hands the grids the blocks of doctored.

    doctored maps (m, n, d) to a block, and the grids read it as it is when
    they run.  A grid reads a block C((m+n)/d, m/d) twice: its logarithm,
    for the float filter, from the table lf its (a, b) strip is given, and
    the block itself from _block, for the exact comparison of an instance
    the filter passes on.  A strip with a doctored instance runs one
    instance at a time, a doctored one with a copy of lf whose entry
    lf[(m+n)/d] makes its block logarithm log2 of the doctored block.  b's
    entry is set before a's, because lf[(m+n)/b] can be lf[m/a] (at a = 2,
    b = 3, m = 24, n = 12), and a's is set even when only b's block is
    doctored.  _block returns the doctored block.  Only the instance
    (m, n) is doctored: the mirror instance (n, m) keeps its true blocks.
    """
    block = lemmas._block

    def doctored_strip(strip):
        def run(tables, a, b, *rest):
            *primes, ms, ns, variant = rest
            if not any(m in ms and n in ns and d in (a, b) for m, n, d in doctored):
                return strip(tables, a, b, *rest)
            lf, *others = tables
            failing = []
            for m in ms:
                for n in ns:
                    own = lf
                    if (m, n, a) in doctored or (m, n, b) in doctored:
                        own = lf[:]
                        for d in (b, a):
                            x, y, t = m // d, n // d, (m + n) // d
                            logarithm = (log2(doctored[m, n, d]) if (m, n, d) in doctored
                                         else lf[t] - lf[x] - lf[y])
                            own[t] = logarithm + own[x] + own[y]
                    failing += strip((own, *others), a, b, *primes, range(m, m + 1),
                                     range(n, n + 1), variant)
            return failing
        return run

    def doctored_block(m, n, d):
        return doctored[m, n, d] if (m, n, d) in doctored else block(m, n, d)

    return [("_lemma21_strip", doctored_strip(lemmas._lemma21_strip)),
            ("_lemma22_strip", doctored_strip(lemmas._lemma22_strip)),
            ("_block", doctored_block)]
