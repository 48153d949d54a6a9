"""Reference-checked benchmark for tenfold1d; see run.py."""
