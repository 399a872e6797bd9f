"""The paper's two applications, each a module imported by name: queue
length with quasi-periodic arrival rates (`queueing`) and home thermal
tracking and day-ahead prediction (`thermal`), with their shared generator
pieces (`synth`) and dataset CSV files (`io`).  This package imports none of
them."""
