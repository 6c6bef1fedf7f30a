"""Streaming kernel regression estimators, their large and moderate
deviation rate functions, and a reproducible Monte Carlo harness."""
