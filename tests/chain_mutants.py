"""A StabilizerChain with one class of Schreier generators left unsifted.

The negative control of the chain and of the claims that read it: level 0
never sifts the Schreier generators u_(s y)^-1 o s o u_y formed with its
last strong generator s, and counts them as tried.
"""

from btcayley.perms import StabilizerChain


class DroppingChain(StabilizerChain):
    def _complete(self, level):
        if level != 0:
            return super()._complete(level)
        strong = self.strong[0]
        last = strong.pop()
        try:
            super()._complete(0)
        finally:
            strong.append(last)
        self._tried[0] = [len(strong)] * len(self._tried[0])


class ShortBoundChain(StabilizerChain):
    """The order bound of a chain that counts one moved point too few:
    (|M|-1)! in place of |M|!, halved as the true bound is."""

    @staticmethod
    def _order_bound(moved, even):
        return StabilizerChain._order_bound(max(moved - 1, 0), even)
