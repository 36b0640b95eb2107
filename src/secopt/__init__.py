"""Confidential stochastic optimization on the unit interval.

A learner queries a stochastic oracle through a replicated query schedule so
that an eavesdropper who sees only the query points learns almost nothing
about the optimizer's location, at the price of a 1/delta_adv slowdown in the
effective sample budget.
"""
