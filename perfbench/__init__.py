"""The repository's benchmark (see ``perfbench/NOTES.md``)."""
