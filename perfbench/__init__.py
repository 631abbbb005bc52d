"""Stage-level benchmark of the EMD Globalizer (see README.md)."""
