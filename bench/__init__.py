"""Host-time benchmark of the program under ``src/``; see ``bench/README.md``."""
