"""End-to-end benchmark of the NOVA reproduction (see ``README.md``)."""
