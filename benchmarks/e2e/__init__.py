"""End-to-end benchmark of the paper pipeline (see README.md)."""
