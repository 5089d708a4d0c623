"""End-to-end benchmark of the 2PS-L pipeline (see README.md)."""
