"""Baselines beside the eigenfunction LFMs: sparse spectrum features
(`ssgpr`) that `comparison.linear_regress` scores beside the eigenfunction
rows, and the resonator blocks (`resonator`) that thermal's "resonator"
roster entry is built from.  Each module is imported by name; this package
imports none of them."""
