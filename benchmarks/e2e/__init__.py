"""The end-to-end benchmark package (see README.md); run via ``run.py``."""
