"""What a golden's regeneration changed, entry by entry.

The scripts that rewrite a golden print, for each entry, whether it was
added, removed or changed, and how many entries kept their bytes, so a
regeneration shows that it touched only the entries it meant to.
"""


def print_changes(label: str, old: dict, new: dict) -> None:
    """Print the names of the entries of old and new that differ."""
    for name in sorted(old.keys() | new.keys(), key=str):
        if name not in old:
            print(f"{label}: added {name}")
        elif name not in new:
            print(f"{label}: removed {name}")
        elif old[name] != new[name]:
            print(f"{label}: changed {name}")
    same = sum(name in old and old[name] == value
               for name, value in new.items())
    print(f"{label}: {same} of {len(new)} entries unchanged")
