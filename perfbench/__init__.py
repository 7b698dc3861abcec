"""End-to-end benchmark with per-layer attribution (see NOTES.md)."""
